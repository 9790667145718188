"""Simulation engine: the per-step user walk and version updates.

Each time step, one peer chosen uniformly at random (possibly churned
first) browses from the root down to a leaf, occupying one version per
node along the way.  At every occupied version the peer tests its
quality and, on a failed test, re-selects a version of the same node in
proportion to viewer counts.  After the walk, one node on the path may
receive an update: a new version with copied links plus either one link
dropped or a brand-new child node attached.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from .directory import (
    DirectoryStore,
    NodeVersion,
    init_control_tree,
    main_tree,
    sample_quality,
)
from .namespace import Namespace
from .peers import PeerPopulation
from . import metrics as _metrics

# Mean degrees this close to 1 are treated as the linear-list limit of the
# update-position staircase.
_DEGREE_EPS = 1e-9


def derive_seed(base_seed: int, stream: str) -> int:
    """Deterministic sub-seed: SHA-256 of "<base>/<stream>", first 8 bytes.

    Keeps realizations (and their metrics RNGs) independent without
    relying on Python's per-process salted hash().
    """
    raw = hashlib.sha256(f"{base_seed}/{stream}".encode("ascii")).digest()
    return int.from_bytes(raw[:8], "big")


_INT_FIELDS = ("n_peers", "t_max", "seed", "realizations")
_FLOAT_FIELDS = ("s", "p_update", "p_add", "p_file", "p_leave")


@dataclass(frozen=True)
class SimConfig:
    """Control parameters for one simulated population.

    The defaults are the control setting: a fixed pool of dedicated peers
    vigorously updating the tree, new nodes equally likely to be files or
    directories, no churn.
    """

    n_peers: int = 100
    s: float = 1.0
    p_update: float = 0.5
    p_add: float = 0.75
    p_file: float = 0.5
    p_leave: float = 0.0
    t_max: int = 100_000
    seed: int = 42
    realizations: int = 10
    # keep the walk exactly as pseudocoded: degrees counted before any
    # deviation and the root version never eligible for updates
    literal_traversal: bool = False

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.literal_traversal, bool):
            raise TypeError(
                f"literal_traversal must be a bool, got {self.literal_traversal!r}"
            )
        if self.n_peers < 1:
            raise ValueError("n_peers must be >= 1")
        if self.s <= 0:
            raise ValueError("s must be > 0")
        for name in ("p_update", "p_add", "p_file", "p_leave"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")


@dataclass
class TraversalRecord:
    """What one walk did: the directory versions occupied (root first in
    the default walk), their summed out-degree, and the update, if any."""

    peer: int
    path: list[NodeVersion] = field(default_factory=list)
    degree_sum: int = 0
    mean_degree: float = 0.0
    updated: int | None = None


def choose_update_index(mean_degree: float, k: int, p: float) -> int:
    """Which of the k path entries to update, given the path's mean
    out-degree and a uniform draw p in [0, 1).

    The staircase floor(log_d(1 + (d**k - 1) p)) approximates a uniform
    choice over all nodes reachable through the path, so bushier paths
    push updates toward the leaves.  As d -> 1 it degenerates to the
    plain uniform floor(p k).  The result is always in {0, ..., k-1}.
    """
    if k < 1:
        raise ValueError("path length k must be >= 1")
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    if mean_degree < 0.0:
        raise ValueError("mean_degree must be >= 0")
    if k == 1:
        return 0
    if abs(mean_degree - 1.0) < _DEGREE_EPS:
        return min(int(p * k), k - 1)
    if mean_degree == 0.0:
        raise ValueError("mean_degree 0 only arises for single-entry paths")
    log_d = math.log(mean_degree)
    exponent = k * log_d
    if exponent <= 700.0:  # d**k still representable in a double
        x = math.log1p(math.expm1(exponent) * p)
    elif p == 0.0:
        return 0
    else:  # d**k overflows; the +1 inside the log is negligible
        x = exponent + math.log(p)
    c = int(x / log_d)
    if c < 0:
        return 0
    return min(c, k - 1)


class Simulation:
    """Mutable state of one realization plus the per-step dynamics."""

    def __init__(self, config: SimConfig, realization: int = 0):
        self.config = config
        self.realization = realization
        self.rng = random.Random(derive_seed(config.seed, f"realization-{realization}"))
        self.store = DirectoryStore()
        # a version holds a majority once strictly more than half the peers view it
        self.peers = PeerPopulation(
            config.n_peers,
            self.store,
            majority_count=config.n_peers // 2 + 1,
            namespace_rng=random.Random(
                derive_seed(config.seed, f"realization-{realization}/namespace")
            ),
        )
        init_control_tree(self.store)
        for node in (1, 2, 3, 4):
            self.peers.set_preference(0, node, 1)  # peer 0 starts on all initial versions
        self.t = 0
        self.updates_performed = 0

    @property
    def index(self):
        return self.peers.index

    @property
    def namespace(self) -> Namespace:
        """The namespace as the peers' current preferences register it."""
        return self.peers.namespace

    def step(self) -> TraversalRecord:
        """Advance time by one traversal of a uniformly chosen peer, who is
        first churned out with probability p_leave (the replacement peer
        then walks immediately)."""
        cfg = self.config
        rng = self.rng
        peer = rng.randrange(cfg.n_peers)
        if rng.random() < cfg.p_leave:
            self.peers.churn_reset(peer)
        self.t += 1
        return self.traverse(peer)

    def traverse(self, peer: int) -> TraversalRecord:
        """Walk from the root to a leaf as `peer`, then maybe update one
        node on the path.

        The path holds the directory versions finally occupied at each
        position, the occupied root version included, and the degree sum
        counts those same versions, so deviated-from versions never
        contribute.

        With `literal_traversal` the walk follows the pseudocode instead:
        degrees are counted for the versions as first viewed (before any
        deviation) and the root never enters the path, so a walk that falls
        straight onto a file or a childless root updates nothing.  It draws
        the same RNG calls in the same order; it is kept for sensitivity
        checks.
        """
        cfg = self.config
        rng = self.rng
        peers = self.peers
        random_draw = rng.random
        randrange = rng.randrange
        select = peers.select
        literal = cfg.literal_traversal
        if literal:
            viewed_degree = 0

            def viewing(node, peer, rng):  # counts degrees as first viewed
                nonlocal viewed_degree
                version = peers.viewing(node, peer, rng)
                viewed_degree += len(version.children)
                return version

        else:
            viewing = peers.viewing
        current = viewing(1, peer, rng)
        if random_draw() >= current.quality:
            current = select(1, peer, rng)
        path = [current]
        degree = len(current.children)
        while current.is_dir and current.children:
            children = current.children
            child = children[randrange(len(children))] if len(children) > 1 else children[0]
            current = viewing(child, peer, rng)
            if random_draw() >= current.quality:  # the quality test also applies to files
                current = select(child, peer, rng)
            if current.is_dir:
                path.append(current)
                degree += len(current.children)

        if literal:
            del path[0]
            degree = viewed_degree
            if not path:
                return TraversalRecord(peer, [], degree, 0.0, None)
        mean_degree = degree / len(path)
        target = path[choose_update_index(mean_degree, len(path), random_draw())]
        updated = None
        if random_draw() < cfg.p_update:
            self.apply_update(target, peer)
            updated = target.node
        return TraversalRecord(peer, path, degree, mean_degree, updated)

    def apply_update(self, target: NodeVersion, peer: int) -> NodeVersion:
        """Publish a new version of target's node as `peer`.

        The new version copies the target's links and rolls a fresh
        quality.  It then either drops one link chosen uniformly (an
        ineffectual delete when there are no links falls through to an
        add) or attaches a brand-new node, file or directory.  The updater
        becomes the first viewer of everything it just created.
        """
        if not target.is_dir:
            raise ValueError("only directory versions can be updated")
        cfg = self.config
        rng = self.rng
        store = self.store
        node = target.node
        children = target.children
        quality = sample_quality(cfg.s, rng)
        new_child = None
        if rng.random() > cfg.p_add and children:
            if len(children) == 1:
                children = ()
            else:
                drop = rng.randrange(len(children))
                children = children[:drop] + children[drop + 1 :]
        else:
            child_is_dir = rng.random() > cfg.p_file
            new_child = store.add_node(child_is_dir, sample_quality(cfg.s, rng), self.t)
            children = children + (new_child.node,)
        fresh = store.add_version(node, quality, children, self.t)
        self.updates_performed += 1
        self.peers.set_preference(peer, node, fresh.version)
        if new_child is not None:
            self.peers.set_preference(peer, new_child.node, 1)
        return fresh


def check_snapshot_interval(snapshot_interval: int) -> None:
    """Reject a snapshot interval that is not an int >= 1."""
    if not isinstance(snapshot_interval, int) or isinstance(snapshot_interval, bool):
        raise TypeError(f"snapshot_interval must be an int, got {snapshot_interval!r}")
    if snapshot_interval < 1:
        raise ValueError("snapshot_interval must be >= 1")


def run_single(
    config: SimConfig, realization: int = 0, snapshot_interval: int = 1000
) -> _metrics.MetricsSeries:
    """One seeded realization: t_max walks, main-tree snapshots on the
    interval grid (t=0 and the final step always included), majority
    events at exact step resolution, and end-of-run histograms.

    Metric extraction draws from its own RNG stream, so the trajectory is
    a function of the config alone, never of how often it is observed.
    """
    check_snapshot_interval(snapshot_interval)
    sim = Simulation(config, realization)
    metrics_rng = random.Random(
        derive_seed(config.seed, f"realization-{realization}/metrics")
    )
    tracker = _metrics.MajorityTracker()
    tracker.observe(sim.store, sim.index, 0)  # initial registrations can cross at N == 1
    tree = main_tree(sim.store, sim.index, metrics_rng)
    snapshots = [_metrics.snapshot(sim.store, sim.index, 0, metrics_rng, tree=tree)]

    t_max = config.t_max
    step = sim.step
    observe = tracker.observe
    store = sim.store
    index = sim.index
    while sim.t < t_max:
        step()
        t = sim.t
        observe(store, index, t)
        if t == t_max or t % snapshot_interval == 0:
            tree = main_tree(store, index, metrics_rng)
            snapshots.append(_metrics.snapshot(store, index, t, metrics_rng, tree=tree))

    return _metrics.MetricsSeries(
        snapshots=snapshots,
        degree_histogram=_metrics.degree_histogram(store, index, metrics_rng),
        viewers_histogram=_metrics.viewers_histogram(index),
        viewers_by_quality=_metrics.viewers_by_quality(store, index),
        majority_events=tracker.events,
        final_main_tree=tree,
    )


@dataclass
class RunResult:
    """All realizations of one configuration plus the averaged series."""

    config: SimConfig
    series: list[_metrics.MetricsSeries]
    average: list[_metrics.AverageSnapshot]


def run(config: SimConfig, snapshot_interval: int = 1000) -> RunResult:
    """Run every realization of `config` (sub-seeded deterministically from
    config.seed) and average the snapshot series pointwise."""
    series = [
        run_single(config, realization, snapshot_interval)
        for realization in range(config.realizations)
    ]
    average = _metrics.average_snapshots([s.snapshots for s in series])
    return RunResult(config, series, average)
