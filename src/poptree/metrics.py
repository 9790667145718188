"""Measured quantities: main-tree series, histograms, majority events.

Everything here is read-only over simulation state.  Counting
conventions the underlying model leaves open (also recorded in exported
metadata): the degree histogram takes one representative version per
viewed node, the viewers histogram counts versions with at least one
viewer, and the viewers-by-quality table covers every version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .directory import DirectoryStore, MainTree
from .peers import PopularityIndex


@dataclass(frozen=True)
class Snapshot:
    """State of the run at one sampled step."""

    t: int
    main_tree_size: int
    main_tree_avg_quality: float
    total_nodes: int
    total_nodes_viewed: int
    total_versions: int


@dataclass(frozen=True)
class AverageSnapshot:
    """Pointwise mean of one snapshot row across realizations."""

    t: int
    main_tree_size: float
    main_tree_avg_quality: float
    total_nodes: float
    total_nodes_viewed: float
    total_versions: float


@dataclass(frozen=True)
class MajorityEvent:
    """A version's viewer count first exceeded half the population."""

    node: int
    version: int
    quality: float
    created_at: int
    reached_at: int


@dataclass(frozen=True)
class QualityBucket:
    """One quality decile: how many versions fall in it and their viewers."""

    lo: float
    hi: float
    versions: int
    total_viewers: int

    @property
    def mean_viewers(self) -> float | None:
        if not self.versions:
            return None
        return self.total_viewers / self.versions


@dataclass
class MetricsSeries:
    """Everything measured over one realization.  Only realization 0 keeps
    `final_main_tree`, the tree the DOT output draws; the others carry None."""

    snapshots: list[Snapshot]
    degree_histogram: dict[int, int]
    viewers_histogram: dict[int, int]
    viewers_by_quality: list[QualityBucket]
    majority_events: list[MajorityEvent]
    final_main_tree: MainTree | None = None


def snapshot(store: DirectoryStore, index: PopularityIndex, t: int, tree: MainTree) -> Snapshot:
    """Sample the run at step `t`, whose main tree `tree` was extracted at
    that step."""
    return Snapshot(
        t=t,
        main_tree_size=tree.size,
        main_tree_avg_quality=tree.mean_quality,
        total_nodes=store.node_count,
        total_nodes_viewed=index.viewed_node_count,
        total_versions=store.total_versions,
    )


def degree_histogram(
    store: DirectoryStore, index: PopularityIndex, rng: random.Random
) -> dict[int, int]:
    """Out-degree frequency over one representative version per node: the
    most viewed one, ties broken at random.  Nodes nobody views any more
    are left out.

    The pick is `index.popular`, the pick a newcomer makes.  Nodes go in
    id order, so tie draws come in a fixed order."""
    histogram: dict[int, int] = {}
    children = store._children
    for node in index.viewed_nodes():
        j = index.popular(node, store.version_count(node), rng)
        degree = len(children[store.id_of(node, j)] or ())  # a file has degree 0
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def viewers_histogram(index: PopularityIndex) -> dict[int, int]:
    """Frequency of viewer counts over all versions with viewers."""
    histogram: dict[int, int] = {}
    viewed_versions = index.viewed_versions
    for node in index.viewed_nodes():
        for _version, count in viewed_versions(node):
            histogram[count] = histogram.get(count, 0) + 1
    return histogram


def viewers_by_quality(
    store: DirectoryStore, index: PopularityIndex
) -> list[QualityBucket]:
    """Mean viewers per version, bucketed by quality decile.  Every version
    counts, viewed or not: the store counts its quality column per decile.
    Viewers are summed over the viewed nodes' viewed versions, so unviewed
    nodes and versions cost no lookup.  A quality is below 1 (the store
    checks it), and quality * 10 then rounds to below 10, so
    int(quality * 10) is the decile, 0 to 9."""
    versions = store.versions_by_decile
    viewers = [0] * 10
    quality = store._quality
    id_of = store.id_of
    viewed_versions = index.viewed_versions
    for node in index.viewed_nodes():
        for version, count in viewed_versions(node):
            viewers[int(quality[id_of(node, version)] * 10)] += count
    return [
        QualityBucket(b / 10, (b + 1) / 10, versions[b], viewers[b]) for b in range(10)
    ]


class MajorityTracker:
    """Watches for versions whose viewer count first exceeds half the
    population.  Each version fires once, at the exact step it crossed,
    even if churn later drops it below the line and it crosses again."""

    def __init__(self):
        self.events: list[MajorityEvent] = []
        self._fired: set[tuple[int, int]] = set()

    def observe(
        self, store: DirectoryStore, index: PopularityIndex, t: int
    ) -> list[MajorityEvent]:
        """Collect the crossings queued in `index`, stamped with step `t`."""
        fresh = []
        for node, version in index.drain_crossings():
            key = (node, version)
            if key in self._fired:
                continue
            self._fired.add(key)
            v = store.version(node, version)
            fresh.append(MajorityEvent(node, version, v.quality, v.created_at, t))
        if fresh:
            self.events.extend(fresh)
        return fresh


def average_snapshots(series: list[list[Snapshot]]) -> list[AverageSnapshot]:
    """Pointwise mean across realizations; the snapshot grids must match."""
    if not series:
        return []
    length = len(series[0])
    if any(len(s) != length for s in series):
        raise ValueError("realizations produced snapshot series of unequal length")
    n = len(series)
    names = [f.name for f in fields(AverageSnapshot)[1:]]  # every field but t
    averaged = []
    for i in range(length):
        rows = [s[i] for s in series]
        t = rows[0].t
        if any(row.t != t for row in rows):
            raise ValueError("realizations sampled at different steps")
        means = {name: sum(getattr(r, name) for r in rows) / n for name in names}
        averaged.append(AverageSnapshot(t=t, **means))
    return averaged
