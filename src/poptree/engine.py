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
import os
import random
from math import expm1, inf, log, log1p
from typing import NamedTuple

from .directory import DirectoryStore, init_control_tree, main_tree, sample_quality
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
# the directory store keeps creation steps as 4-byte ints
_MAX_STEP = 2**31 - 1


class _SimConfigFields(NamedTuple):
    n_peers: int = 100
    s: float = 1.0
    p_update: float = 0.5
    p_add: float = 0.75
    p_file: float = 0.5
    p_leave: float = 0.0
    t_max: int = 100_000
    seed: int = 42
    realizations: int = 10
    # only False: the literal walk is gone, but configs and outputs keep the key
    literal_traversal: bool = False


class SimConfig(_SimConfigFields):
    """Control parameters for one simulated population.

    The defaults are the control setting: a fixed pool of dedicated peers
    vigorously updating the tree, new nodes equally likely to be files or
    directories, no churn.  Every way of building one checks the values.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        if self.literal_traversal:
            raise ValueError(
                "literal_traversal must be false: the literal walk was removed"
                " (see the README's 'Sensitivity to the walk variant')"
            )
        if self.n_peers < 1:
            raise ValueError("n_peers must be >= 1")
        if self.s <= 0:
            raise ValueError("s must be > 0")
        for name in ("p_update", "p_add", "p_file", "p_leave"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.t_max <= _MAX_STEP:
            raise ValueError(f"t_max must be in [0, 2**31 - 1], got {self.t_max!r}")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so `_replace` checks too
    _SimConfigFields.__new__.__qualname__ = "SimConfig.__new__"  # errors name the record


class TraversalRecord(NamedTuple):
    """What one walk did: the directory nodes it occupied (root first)
    and the node updated, if any.  The peer's preference at each path
    node is the version it occupied."""

    peer: int
    path: list[int]
    updated: int | None


# _tuple_new(TraversalRecord, (peer, path, updated)) builds a record
# without the Python frame of the generated __new__
_tuple_new = tuple.__new__


def choose_update_index(mean_degree: float, k: int, p: float) -> int:
    """Which of the k path entries to update, given the path's mean
    out-degree and a uniform draw p in [0, 1).

    The staircase floor(log_d(1 + (d**k - 1) p)) approximates a uniform
    choice over all nodes reachable through the path, so bushier paths
    push updates toward the leaves.  As d -> 1 it degenerates to the
    plain uniform floor(p k).  The result is always in {0, ..., k-1}.
    A mean_degree of 0 takes index 0, the d -> 0+ limit, though a walk's
    path of k >= 2 entries sums to at least k - 1.  A NaN or infinite
    mean_degree is refused.
    """
    if k < 1:
        raise ValueError("path length k must be >= 1")
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    if not 0.0 <= mean_degree < inf:
        raise ValueError(f"mean_degree must be finite and >= 0, got {mean_degree!r}")
    if k == 1 or mean_degree == 0.0:
        return 0
    if abs(mean_degree - 1.0) < _DEGREE_EPS:
        c = int(p * k)
        return c if c < k else k - 1
    log_d = log(mean_degree)
    exponent = k * log_d
    if exponent <= 700.0:  # d**k still representable in a double
        x = log1p(expm1(exponent) * p)
    elif p == 0.0:
        return 0
    else:  # d**k overflows; the +1 inside the log is negligible
        x = exponent + log(p)
    c = int(x / log_d)
    if c < 0:
        return 0
    return c if c < k else k - 1


class Simulation:
    """Mutable state of one realization plus the per-step dynamics.

    The walk is bound once, to the RNG and the population, when the
    simulation is made and again whenever `rng` is assigned, so a step
    passes it only the peer.  Nothing bound refers back to the simulation.
    """

    def __init__(self, config: SimConfig, realization: int = 0):
        self._config = config
        # what step and apply_update read, bound once: a config field read is a call
        self._n_peers, self._s = config.n_peers, config.s
        self._p_update, self._p_add = config.p_update, config.p_add
        self._p_file, self._p_leave = config.p_file, config.p_leave
        self.store = DirectoryStore()
        self.peers = PeerPopulation(config.n_peers, self.store)
        init_control_tree(self.store)
        for node in (1, 2, 3, 4):
            self.peers.set_preference(0, node, 1)  # peer 0 starts on all initial versions
        self.t = 0
        self.rng = random.Random(derive_seed(config.seed, f"realization-{realization}"))

    @property
    def config(self) -> SimConfig:
        """The config the simulation was made with.  It cannot be assigned:
        the step reads the values bound from it then."""
        return self._config

    @property
    def rng(self) -> random.Random:
        """The realization's RNG; every draw of a step comes from it."""
        return self._rng

    @rng.setter
    def rng(self, rng: random.Random) -> None:
        self._rng = rng
        self._walk = self.peers.walker(rng)

    @property
    def index(self):
        return self.peers.index

    def step(self) -> TraversalRecord:
        """Advance time by one step: a uniformly chosen peer, first churned
        out with probability p_leave, walks from the root to a leaf, then
        maybe updates one node on the path.

        The walk is `PeerPopulation.walker`'s, bound to `rng`: the peer
        views its preferred version or, without one, the default (a uniform
        pick among the most viewed versions), and re-picks in proportion to
        viewer counts on a failed quality test.  It leaves the peer's
        preference at each path node on the version it occupied, so the
        update target's version is read from there."""
        rng = self._rng
        # randrange(n_peers), same draw: the body of Random._randbelow
        n = self._n_peers
        bits = n.bit_length()
        peer = rng.getrandbits(bits)
        while peer >= n:
            peer = rng.getrandbits(bits)
        random_draw = rng.random
        if random_draw() < self._p_leave:
            self.peers.churn_reset(peer)
        self.t += 1
        path, degree = self._walk(peer)
        target = None
        p = random_draw()
        if random_draw() < self._p_update:
            k = len(path)
            target = path[choose_update_index(degree / k, k, p)]
            self.apply_update(target, self.peers._prefs[peer][target], peer)
        return _tuple_new(TraversalRecord, (peer, path, target))

    def apply_update(self, node: int, version: int, peer: int) -> int:
        """Publish a new version of `node`, derived from its version
        `version`, as `peer`, and return the new version number.

        The new version copies the target's links and rolls a fresh
        quality.  It then either drops one link chosen uniformly (an
        ineffectual delete when there are no links falls through to an
        add) or attaches a brand-new node, file or directory.  The updater
        becomes the first viewer of everything it just created: its
        preference moves as the walk moves it, an increment of the new
        version, then a decrement of the version it left, if any.

        A peer outside the population, like an unknown version, is refused
        before any draw or write.
        """
        if not 0 <= peer < self._n_peers:
            raise IndexError(f"peer {peer} not in range(n_peers={self._n_peers})")
        store = self.store
        children = store._children[store.id_of(node, version)]
        if children is None:
            raise ValueError("only directory versions can be updated")
        rng = self._rng
        quality = sample_quality(self._s, rng)
        new_child = None
        if rng.random() > self._p_add and children:
            if len(children) == 1:
                children = ()
            else:
                drop = rng._randbelow(len(children))
                children = children[:drop] + children[drop + 1 :]
        else:
            child_is_dir = rng.random() > self._p_file
            new_child = store.add_node(child_is_dir, sample_quality(self._s, rng), self.t)
            children = children + (new_child,)
        fresh = store.add_version(node, quality, children, self.t)
        peers = self.peers
        index = peers.index
        prefs = peers._prefs[peer]
        old = prefs.get(node)
        prefs[node] = fresh
        index.increment(node, fresh)
        if old is not None:
            index.decrement(node, old)
        if new_child is not None:
            prefs[new_child] = 1
            index.increment(new_child, 1)
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
    metrics_rng = random.Random(derive_seed(config.seed, f"realization-{realization}/metrics"))
    tracker = _metrics.MajorityTracker()
    tracker.observe(sim.store, sim.index, 0)  # initial registrations can cross at N == 1
    tree = main_tree(sim.store, sim.index, metrics_rng)
    snapshots = [_metrics.snapshot(sim.store, sim.index, 0, tree)]

    t_max = config.t_max
    step = sim.step
    observe = tracker.observe
    store = sim.store
    index = sim.index
    while sim.t < t_max:
        step()
        t = sim.t
        if index._crossings:  # events keep the step they crossed at
            observe(store, index, t)
        if t == t_max or t % snapshot_interval == 0:
            tree = main_tree(store, index, metrics_rng)
            snapshots.append(_metrics.snapshot(store, index, t, tree))

    return _metrics.MetricsSeries(
        snapshots=snapshots,
        degree_histogram=_metrics.degree_histogram(store, index, metrics_rng),
        viewers_histogram=_metrics.viewers_histogram(index),
        viewers_by_quality=_metrics.viewers_by_quality(store, index),
        majority_events=tracker.events,
        final_main_tree=tree if realization == 0 else None,
    )


class ResultBundle(NamedTuple):
    """All realizations of one configuration: the sweep value it was run
    for (None outside a sweep), the resolved config, every realization's
    metrics, and the averaged snapshot series."""

    sweep_value: float | int | None
    config: SimConfig
    series: list[_metrics.MetricsSeries]
    average: list[_metrics.Snapshot]


def check_jobs(jobs: int | None) -> None:
    """Reject a job count that is neither None nor an int >= 1."""
    if jobs is None:
        return
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise TypeError(f"jobs must be an int, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")


def process_count(jobs: int | None, realizations: int, cpus: int, can_fork: bool) -> int:
    """How many processes run a config's realizations: `jobs` (all `cpus`
    when None), capped at `cpus` and at `realizations`, and 1 without fork."""
    check_jobs(jobs)
    if not can_fork:
        return 1
    return min(cpus if jobs is None else jobs, cpus, realizations)


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def run(
    config: SimConfig, snapshot_interval: int = 1000, jobs: int | None = None
) -> ResultBundle:
    """Run every realization of `config` (sub-seeded deterministically from
    config.seed) and average the snapshot series pointwise, in a bundle
    whose sweep_value is None.

    The realizations are split into `jobs` contiguous blocks (by default one
    per available CPU; never more blocks than CPUs or realizations).  Every
    block but the last runs in a forked worker process that sends its results
    back through a pipe; the calling process runs the last block itself.  The
    series come back in realization order, so the result does not depend on
    `jobs`.  Where `os.fork` does not exist there is one block, and one
    block runs in the calling process without a fork.
    """
    check_snapshot_interval(snapshot_interval)
    realizations = config.realizations
    blocks = process_count(jobs, realizations, available_cpus(), hasattr(os, "fork"))
    bounds = [b * realizations // blocks for b in range(blocks + 1)]
    series = _run_forked(
        config, snapshot_interval, [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    )
    average = _metrics.average_snapshots([s.snapshots for s in series])
    return ResultBundle(None, config, series, average)


def _run_forked(
    config: SimConfig, snapshot_interval: int, blocks: list[range]
) -> list[_metrics.MetricsSeries]:
    """Fork one worker per block but the last, run the last block here, and
    gather every worker's series in block order.

    A worker's exception is re-raised here with its type and message.  A
    worker that exits without a result is a RuntimeError.  Whatever is
    raised, no worker outlives this call: those not yet collected are
    killed and reaped.  A worker whose caller is killed outright exits
    before its next realization.  With one block nothing is forked, and
    the modules that forking needs are not loaded.
    """
    if len(blocks) > 1:
        import pickle
        import signal

    caller = os.getpid()
    workers: dict[int, int] = {}  # pid -> read end of its pipe, in block order
    try:
        for block in blocks[:-1]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _worker(config, snapshot_interval, block, caller, read_fd, write_fd)
            os.close(write_fd)
            workers[pid] = read_fd
        own = [run_single(config, k, snapshot_interval) for k in blocks[-1]]
        series = []
        for pid, read_fd in list(workers.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            os.close(read_fd)
            if not data:
                raise RuntimeError(
                    f"realization worker {pid} exited without a result (wait status {status})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            series.extend(value)
        return series + own
    finally:
        for pid, read_fd in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)


def _worker(
    config: SimConfig, snapshot_interval: int, block: range, caller: int, read_fd: int, write_fd: int
) -> None:
    """The forked side of `_run_forked`: run `block`, write `(True, series)`
    or `(False, exception)` to the pipe and leave through `os._exit`, so no
    cleanup or exit hook of the calling process runs twice.

    Before each realization it checks that `caller`, the pid of the process
    that forked it, is still its parent.  Once the caller is gone, nobody
    reads the pipe, so it exits at once and writes nothing."""
    status = 1
    try:
        import pickle

        os.close(read_fd)
        try:
            series = []
            for k in block:
                if os.getppid() != caller:
                    os._exit(1)
                series.append(run_single(config, k, snapshot_interval))
            reply = (True, series)
        except BaseException as exc:
            if hasattr(exc, "add_note"):  # Python 3.11+: keep the worker's traceback
                import traceback

                exc.add_note(
                    f"raised in realization worker {os.getpid()}:\n"
                    + "".join(traceback.format_tb(exc.__traceback__))
                )
            reply = (False, exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # keep at least the type and message
            error = exc if reply[0] else reply[1]
            data = pickle.dumps(
                (False, RuntimeError(f"{type(error).__name__}: {error}")),
                pickle.HIGHEST_PROTOCOL,
            )
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()  # the caller only sees the exit status
    finally:
        os._exit(status)
