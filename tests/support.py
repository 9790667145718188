"""Shared test helpers."""

from __future__ import annotations

from poptree.directory import NodeVersion
from poptree.engine import Simulation, TraversalRecord, choose_update_index
from poptree.namespace import Namespace, view
from poptree.peers import PeerPopulation


class ScriptedRandom:
    """random.Random stand-in replaying queued draws.

    random() pops from `randoms`, randrange(n) pops from `randranges`
    (validating the scripted value fits the requested range).  _randbelow(n),
    which the simulation calls for randrange(n) draws, pops from the same
    queue, and so does getrandbits(k), whose rejection loop the simulation
    inlines for its per-step draws: a scripted value the loop rejects makes
    it pop again.  Running out of scripted values fails the test loudly.
    """

    def __init__(self, randoms=(), randranges=()):
        self.randoms = list(randoms)
        self.randranges = list(randranges)

    def random(self) -> float:
        if not self.randoms:
            raise AssertionError("test consumed more random() draws than scripted")
        return self.randoms.pop(0)

    def randrange(self, n: int) -> int:
        if not self.randranges:
            raise AssertionError("test consumed more randrange() draws than scripted")
        value = self.randranges.pop(0)
        assert 0 <= value < n, f"scripted randrange value {value} out of range({n})"
        return value

    _randbelow = randrange

    def getrandbits(self, k: int) -> int:
        if not self.randranges:
            raise AssertionError("test consumed more getrandbits() draws than scripted")
        value = self.randranges.pop(0)
        assert 0 <= value < 2**k, f"scripted getrandbits value {value} out of range(2**{k})"
        return value

    def exhausted(self) -> bool:
        return not self.randoms and not self.randranges


# --- reference walk ------------------------------------------------------------
#
# The step as it was before its helper calls were inlined: every integer
# draw is `Random._randbelow`, every view goes through `PeerPopulation.viewing`
# and every re-pick through `select`.  The differential tests in test_engine.py
# hold the simulation to it draw for draw and write for write.


def namespace_of(peers: PeerPopulation) -> Namespace:
    """The namespace that `peers`' current preferences register."""
    return view([peers.preferences_of(p) for p in range(peers.n_peers)])


def reference_step(sim: Simulation) -> TraversalRecord:
    """`Simulation.step`, built on `_randbelow` and `viewing`/`select`."""
    cfg = sim.config
    rng = sim.rng
    peers = sim.peers
    peer = rng._randbelow(cfg.n_peers)
    if rng.random() < cfg.p_leave:
        peers.churn_reset(peer)
    sim.t += 1
    current = peers.viewing(1, peer, rng)
    if rng.random() >= current.quality:
        current = peers.select(1, peer, rng)
    path = [current]
    degree = len(current.children)
    while current.is_dir and current.children:
        children = current.children
        child = children[rng._randbelow(len(children))] if len(children) > 1 else children[0]
        current = peers.viewing(child, peer, rng)
        if rng.random() >= current.quality:
            current = peers.select(child, peer, rng)
        if current.is_dir:
            path.append(current)
            degree += len(current.children)

    p = rng.random()
    updated = None
    if rng.random() < cfg.p_update:
        target = path[choose_update_index(degree / len(path), len(path), p)]
        sim.apply_update(target.node, target.version, peer)
        updated = target.node
    return TraversalRecord(peer, [v.node for v in path], updated)


def records(store, preferences, nodes) -> list[NodeVersion]:
    """The records of the versions that `preferences` (node -> version)
    names at `nodes`, in order.  After a walk, a walker's preferences name
    the versions it occupied, but for the node it then updated, whose
    preference moves to the new version."""
    return [store.version(node, preferences[node]) for node in nodes]


# --- object reference store ------------------------------------------------------
#
# The directory store as it was before it went columnar: one immutable
# NodeVersion per stored version, in a list per node.  Its one addition is
# the columnar store's rule that a file node takes no second version.
# test_directory.py holds the columnar store to it call for call.


class ObjectStore:
    def __init__(self):
        self._versions: list[list[NodeVersion]] = [[]]
        self._by_decile = [0] * 10

    @property
    def node_count(self):
        return len(self._versions) - 1

    @property
    def total_versions(self):
        return sum(self._by_decile)

    @property
    def versions_by_decile(self):
        return list(self._by_decile)

    def versions_of(self, node):
        if not 1 <= node < len(self._versions):
            raise KeyError(f"unknown node {node}")
        return tuple(self._versions[node])

    def version(self, node, version):
        versions = self.versions_of(node)
        if not 1 <= version <= len(versions):
            raise KeyError(f"node {node} has no version {version}")
        return versions[version - 1]

    @staticmethod
    def _record(node, version, quality, is_dir, children, created_at):
        if not 0.0 <= quality < 1.0:
            raise ValueError("quality must be in [0, 1)")
        children = tuple(children)
        if not is_dir and children:
            raise ValueError("file versions cannot carry child links")
        return NodeVersion(node, version, quality, is_dir, children, created_at)

    def add_node(self, is_dir, quality, created_at, children=()):
        node = len(self._versions)
        first = self._record(node, 1, quality, is_dir, children, created_at)
        self._versions.append([first])
        self._by_decile[int(quality * 10)] += 1
        return node

    def add_version(self, node, quality, children, created_at):
        versions = self._versions[node] if 1 <= node < len(self._versions) else None
        if versions is None:
            raise KeyError(f"unknown node {node}")
        if not versions[0].is_dir:
            raise ValueError("a file node takes no further version")
        fresh = self._record(node, len(versions) + 1, quality, True, children, created_at)
        versions.append(fresh)
        self._by_decile[int(quality * 10)] += 1
        return fresh.version


# --- reference picks and counts --------------------------------------------------


def pick_popular(n_versions, counts, rng):
    """Uniform choice among the versions with the highest viewer count, as a
    version number of a node with `n_versions` versions.

    With no viewers at all, every version ties at zero and the choice is
    uniform over all of them.  A single candidate is taken without
    consuming a random draw.
    """
    if counts:
        top = max(counts.values())
        ties = [j for j, c in counts.items() if c == top]
        return ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
    if n_versions == 1:
        return 1
    return rng.randrange(n_versions) + 1


def recount_preferences(peers):
    """{node: {version: viewers}} recounted from every peer's preferences."""
    counts: dict[int, dict[int, int]] = {}
    for peer in range(peers.n_peers):
        for node, version in peers.preferences_of(peer).items():
            per_node = counts.setdefault(node, {})
            per_node[version] = per_node.get(version, 0) + 1
    return counts


# --- dense reference index -------------------------------------------------------
#
# The popularity index before it went sparse: every viewed node keeps a
# {version: count} dict, made at its first view.  A count that reaches 0 is
# deleted, and so is a node's dict once it is empty.  The leader and bound
# bookkeeping, and the rule that queues a version's first majority crossing
# only, are the sparse index's.  test_peers.py holds the sparse index to
# it operation for operation.


class DenseIndex:
    def __init__(self, majority_count=None):
        self._counts: dict[int, dict[int, int]] = {}
        self._totals: list[int] = []
        self._leader: list[int] = []
        self._bound: list[int] = []
        self._viewed_nodes = 0
        self._majority_count = majority_count
        self._crossings: list[tuple[int, int]] = []
        self._crossed: set[tuple[int, int]] = set()

    def counts_for(self, node):
        return self._counts.get(node, {})

    def popular(self, node, n_versions, rng):
        leaders = self._leader
        leader = leaders[node] if node < len(leaders) else 0
        if leader:
            return leader
        counts = self._counts.get(node)
        if not counts:
            return pick_popular(n_versions, {}, rng)
        top = max(counts.values())
        ties = [j for j, c in counts.items() if c == top]
        if len(ties) > 1:
            self._bound[node] = top
            return ties[rng.randrange(len(ties))]
        leader = leaders[node] = ties[0]
        self._bound[node] = max([c for c in counts.values() if c != top], default=0)
        return leader

    def increment(self, node, version):
        if node >= len(self._totals):
            extra = [0] * (node + 1024 - len(self._totals))
            for stored in (self._totals, self._leader, self._bound):
                stored.extend(extra)
        total = self._totals[node] = self._totals[node] + 1
        if total == 1:
            self._viewed_nodes += 1
        counts = self._counts.setdefault(node, {})
        c = counts[version] = counts.get(version, 0) + 1
        leader = self._leader[node]
        if leader != version and c > self._bound[node]:
            if not leader:
                self._leader[node] = version
            else:
                self._bound[node] = c
                if c == counts[leader]:
                    self._leader[node] = 0
        if c == self._majority_count and (node, version) not in self._crossed:
            self._crossed.add((node, version))
            self._crossings.append((node, version))

    def decrement(self, node, version):
        counts = self._counts[node]
        c = counts[version] - 1
        if c:
            counts[version] = c
        else:
            del counts[version]
            if not counts:
                del self._counts[node]
        total = self._totals[node] = self._totals[node] - 1
        if total == 0:
            self._viewed_nodes -= 1
            self._leader[node] = self._bound[node] = 0
        elif self._leader[node] == version and c <= self._bound[node]:
            self._leader[node] = 0

    def drain_crossings(self):
        crossed, self._crossings = self._crossings, []
        return crossed


# --- invariants ------------------------------------------------------------------
#
# What every state of a run keeps: the directory network stays a tree, no
# published version changes, and the popularity index counts exactly the
# peers registered to each version.  `Invariants(sim).check()` checks all
# of it; a state without a Simulation checks the part that applies, the
# store's columns with `check_columns` and an index with `check_index`.


def check_columns(store, start=0):
    """The store's columns agree in length, and every quality from version
    id `start` on is in [0, 1)."""
    n = store.total_versions
    assert len(store._quality) == len(store._created) == len(store._children) == n
    assert store.node_count + sum(len(ids) for ids in store._later.values()) == n
    assert all(0.0 <= q < 1.0 for q in store._quality[start:]), "quality outside [0, 1)"


def check_index(index, nodes, peers=None):
    """The popularity index is consistent over `nodes`, which must hold every
    node it has counted.

    Each node's total is the sum of its counts, and no count is 0.  A viewed
    node without a counts dict has a known leader, a bound of 0 and
    `counts_for(node) == {leader: total}` (the sparse rule); a node with no
    viewers has no dict, no leader and a bound of 0.  No count but the
    leader's is above the bound, and a leader's is.  Every version at or
    above the majority count has been queued, and the queue lists each
    version once.  With `peers`, the counts equal `recount_preferences` node
    by node and no node has more than `n_peers` viewers.
    """
    dicts, majority, crossed = index._counts, index._majority_count, index._crossed
    size = len(index._totals)
    totals, leaders, bounds = (
        [column[node] if node < size else 0 for node in nodes]
        for column in (index._totals, index._leader, index._bound)
    )
    counted = {}
    for node, total, leader, bound in zip(nodes, totals, leaders, bounds):
        if not total:
            assert not (leader or bound or node in dicts or index.counts_for(node)), node
            continue
        counts = index.counts_for(node)
        if node not in dicts:  # the sparse rule
            assert leader and bound == 0 and counts == {leader: total}, node
            if majority is not None and total >= majority:
                assert (node, leader) in crossed, node
        else:
            assert sum(counts.values()) == total and 0 not in counts.values(), node
            others = [c for version, c in counts.items() if version != leader]
            assert all(c <= bound for c in others), node
            if leader:
                assert counts[leader] > bound and all(counts[leader] > c for c in others), node
            if majority is not None:
                assert all((node, v) in crossed for v, c in counts.items() if c >= majority), node
        counted[node] = counts
    assert index.viewed_node_count == len(counted)
    assert dicts.keys() <= counted.keys()
    crossings = index._crossings
    assert len(set(crossings)) == len(crossings) and crossed.issuperset(crossings)
    if peers is not None:
        assert counted == recount_preferences(peers)
        assert max(totals, default=0) <= peers.n_peers


class Invariants:
    """The invariants of `sim`'s state, checked at each `check()` call.

    On top of `check_columns` and `check_index` over every node, each call
    checks that every column still starts with what it held at the previous
    call, so no published version and no node's version numbering changed.
    The links of the versions created since then are folded into a
    node -> parent map: every node but the root has exactly one parent node
    over all versions' links, the root has none, and no version links a
    node twice or to a node that does not exist.  Only directories have
    later versions, and the versions created since the previous call take
    the ids that follow its last one.
    """

    def __init__(self, sim):
        self.sim = sim
        self._held = {}  # each column's contents at the previous call
        self._parent = {}  # node -> the node whose versions link to it

    def check(self):
        store, held, parent = self.sim.store, self._held, self._parent
        checked = len(held.get("quality", ()))  # versions checked before
        check_columns(store, checked)
        columns = {
            "quality": store._quality,
            "created": store._created,
            "children": store._children,
            "first": store._first,
            **{("later", node): ids for node, ids in store._later.items()},
        }
        for name, old in held.items():
            assert columns[name][: len(old)] == old, f"column {name} changed"
        children, first = store._children, store._first
        fresh = [(node, first[node]) for node in range(len(held.get("first", (0,))), len(first))]
        for node, ids in store._later.items():
            for g in ids[len(held.get(("later", node), ())) :]:
                assert children[g] is not None, f"file node {node} has a later version"
                fresh.append((node, g))
        assert sorted(g for _, g in fresh) == list(range(checked, store.total_versions))
        node_count = store.node_count
        for node, g in fresh:
            links = children[g] or ()
            assert len(set(links)) == len(links), f"node {node} links a node twice"
            for child in links:
                assert 2 <= child <= node_count, f"node {node} links {child}"
                assert parent.setdefault(child, node) == node, f"node {child} has two parents"
        assert len(parent) == node_count - 1, "a node other than the root has no parent"
        held.clear()
        held.update((name, column[:]) for name, column in columns.items())
        check_index(self.sim.index, range(1, node_count + 1), self.sim.peers)
