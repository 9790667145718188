"""Measured quantities: main-tree series, histograms, majority events.

Everything here is read-only over simulation state.  Counting
conventions the underlying model leaves open (also recorded in exported
metadata): the degree histogram takes one representative version per
viewed node, the viewers histogram counts versions with at least one
viewer, and the viewers-by-quality table covers every version.
"""

from __future__ import annotations

import random
from itertools import compress, count
from typing import NamedTuple

from .directory import DirectoryStore, MainTree
from .peers import PopularityIndex


class Snapshot(NamedTuple):
    """State of the run at one sampled step."""

    t: int
    main_tree_size: int
    main_tree_avg_quality: float
    total_nodes: int
    total_nodes_viewed: int
    total_versions: int


class AverageSnapshot(NamedTuple):
    """Pointwise mean of one snapshot row across realizations."""

    t: int
    main_tree_size: float
    main_tree_avg_quality: float
    total_nodes: float
    total_nodes_viewed: float
    total_versions: float


class MajorityEvent(NamedTuple):
    """A version's viewer count first exceeded half the population."""

    node: int
    version: int
    quality: float
    created_at: int
    reached_at: int


class QualityBucket(NamedTuple):
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


class MetricsSeries(NamedTuple):
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

    The pick is `index.popular`, the pick a newcomer makes.  A known
    leader is that pick, with no draw; every viewed node without a counts
    dict has one.  The other nodes go through `popular` in id order, so
    tie draws come in a fixed order."""
    histogram: dict[int, int] = {}
    children = store._children
    first = store._first
    later = store._later
    popular = index.popular
    for node, leader in compress(enumerate(index._leader), index._totals):
        # leader 0: the node has a counts dict, so two or more versions
        j = leader or popular(node, len(later[node]) + 1, rng)
        g = first[node] if j == 1 else later[node][j - 2]
        degree = len(children[g] or ())  # a file has degree 0
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def viewers_histogram(index: PopularityIndex) -> dict[int, int]:
    """Frequency of viewer counts over all versions with viewers.  A viewed
    node without a counts dict has one viewed version, holding its total."""
    histogram: dict[int, int] = {}
    counts_of = index._counts
    for node, total in compress(enumerate(index._totals), index._totals):
        counts = counts_of.get(node)
        if counts is None:
            histogram[total] = histogram.get(total, 0) + 1
        else:
            for c in counts.values():
                histogram[c] = histogram.get(c, 0) + 1
    return histogram


def viewers_by_quality(
    store: DirectoryStore, index: PopularityIndex
) -> list[QualityBucket]:
    """Mean viewers per version, bucketed by quality decile.  Every version
    counts, viewed or not: the store counts its quality column per decile.
    Viewers are summed over the viewed nodes' viewed versions, read from
    the index and the store's columns, so unviewed nodes and versions cost
    nothing.  A quality is below 1 (the store checks it), and quality * 10
    then rounds to below 10, so int(quality * 10) is the decile, 0 to 9."""
    versions = store.versions_by_decile
    viewers = [0] * 10
    quality = store._quality
    first = store._first
    later = store._later
    counts_of = index._counts
    totals = index._totals
    for node, leader, total in compress(zip(count(), index._leader, totals), totals):
        counts = counts_of.get(node)
        if counts is None:  # the leader holds every viewer
            g = first[node] if leader == 1 else later[node][leader - 2]
            viewers[int(quality[g] * 10)] += total
        else:
            ids = later[node]
            for version, c in counts.items():
                viewers[int(quality[first[node] if version == 1 else ids[version - 2]] * 10)] += c
    return [
        QualityBucket(b / 10, (b + 1) / 10, versions[b], viewers[b]) for b in range(10)
    ]


class MajorityTracker:
    """Watches for versions whose viewer count first exceeds half the
    population.  Each version fires once, at the exact step it crossed,
    even if churn later drops it below the line and it crosses again: the
    index queues a version only at its first crossing."""

    def __init__(self):
        self.events: list[MajorityEvent] = []

    def observe(
        self, store: DirectoryStore, index: PopularityIndex, t: int
    ) -> list[MajorityEvent]:
        """Collect the crossings queued in `index`, stamped with step `t`."""
        fresh = []
        for node, version in index.drain_crossings():
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
    averaged = []
    for i in range(length):
        steps, *columns = zip(*(s[i] for s in series))
        t = steps[0]
        if any(step != t for step in steps):
            raise ValueError("realizations sampled at different steps")
        # each column summed as a left fold in realization order: built-in
        # sum() of floats is compensated from Python 3.12 on
        means = []
        for column in columns:
            total = 0
            for value in column:
                total += value
            means.append(total / n)
        averaged.append(AverageSnapshot(t, *means))
    return averaged
