"""Shared test helpers."""

from __future__ import annotations

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


def namespace_of(peers: PeerPopulation, rng=None) -> Namespace:
    """The namespace that `peers`' current preferences register."""
    return view([peers.preferences_of(p) for p in range(peers.n_peers)], rng)


def reference_step(sim: Simulation) -> TraversalRecord:
    """`Simulation.step` with the reference walk."""
    cfg = sim.config
    rng = sim.rng
    peer = rng._randbelow(cfg.n_peers)
    if rng.random() < cfg.p_leave:
        sim.peers.churn_reset(peer)
    sim.t += 1
    return reference_traverse(sim, peer)


def reference_traverse(sim: Simulation, peer: int) -> TraversalRecord:
    """`Simulation.traverse`, built on `viewing`/`select`."""
    cfg = sim.config
    rng = sim.rng
    peers = sim.peers
    literal = cfg.literal_traversal
    viewed_degree = 0

    def viewing(node):
        nonlocal viewed_degree
        version = peers.viewing(node, peer, rng)
        viewed_degree += len(version.children)
        return version

    current = viewing(1)
    if rng.random() >= current.quality:
        current = peers.select(1, peer, rng)
    path = [current]
    degree = len(current.children)
    while current.is_dir and current.children:
        children = current.children
        child = children[rng._randbelow(len(children))] if len(children) > 1 else children[0]
        current = viewing(child)
        if rng.random() >= current.quality:
            current = peers.select(child, peer, rng)
        if current.is_dir:
            path.append(current)
            degree += len(current.children)

    if literal:
        del path[0]
        if not path:
            return TraversalRecord(peer, [], 0.0, None)
        degree = viewed_degree
    mean_degree = degree / len(path)
    target = path[choose_update_index(mean_degree, len(path), rng.random())]
    updated = None
    if rng.random() < cfg.p_update:
        sim.apply_update(target, peer)
        updated = target.node
    return TraversalRecord(peer, path, mean_degree, updated)

