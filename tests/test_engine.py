"""Engine: update-position staircase, traversal walk, updates, runs."""

import copy
import gc
import math
import os
import random
import signal
import subprocess
import sys
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poptree import engine
from poptree.engine import (
    SimConfig,
    Simulation,
    choose_update_index,
    derive_seed,
    process_count,
    run,
    run_single,
)
from poptree.metrics import MajorityTracker, Snapshot
from poptree.peers import PopularityIndex
import support
from support import (
    Invariants,
    ScriptedRandom,
    namespace_of,
    records,
    reference_step,
)


def path_of(sim, record):
    """(node, version) of each entry of `record.path`, read from the
    walker's preferences: the versions it occupied, on a walk that updated
    nothing."""
    assert record.updated is None
    prefs = sim.peers.preferences_of(record.peer)
    return [(v.node, v.version) for v in records(sim.store, prefs, record.path)]


def spy_walk(sim):
    """The (path, degree sum) of every walk `sim`'s bound walk returns to
    `step`, in order, until `sim.rng` is next assigned."""
    walk = sim._walk
    walked = []
    sim._walk = lambda peer: walked.append(walk(peer)) or walked[-1]
    return walked


@contextmanager
def staircase_inputs(module):
    """The (mean_degree, k, p) of every call `module` makes to
    `choose_update_index` inside the block."""
    calls = []
    original = module.choose_update_index
    module.choose_update_index = lambda *args: calls.append(args) or original(*args)
    try:
        yield calls
    finally:
        module.choose_update_index = original

# --- choose_update_index ----------------------------------------------------


def cell_midpoints(d, k):
    """Independent staircase oracle: value v covers p in
    [(d^v - 1)/(d^k - 1), (d^(v+1) - 1)/(d^k - 1)); probe each cell's middle."""
    bounds = [(d**v - 1) / (d**k - 1) for v in range(k + 1)]
    return [(v, (bounds[v] + bounds[v + 1]) / 2) for v in range(k)]


@pytest.mark.parametrize("d", [0.5, 1.5, 2.0, 4.0, 10.0])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_staircase_matches_cell_enumeration(d, k):
    for expected, p in cell_midpoints(d, k):
        assert choose_update_index(d, k, p) == expected


def test_staircase_frozen_points():
    # frozen from the cell-boundary oracle at d=4, k=4
    assert choose_update_index(4.0, 4, 0.05) == 1
    assert choose_update_index(4.0, 4, 0.5) == 3


def test_zero_draw_always_picks_the_root_position():
    for d in (0.5, 1.0, 3.0, 50.0):
        for k in (1, 2, 6):
            assert choose_update_index(d, k, 0.0) == 0


def test_near_one_degree_degenerates_to_uniform():
    assert choose_update_index(1.0 + 1e-12, 4, 0.6) == 2
    rng = random.Random(71)
    for _ in range(1000):
        p = rng.random()
        k = rng.randrange(1, 30)
        assert choose_update_index(1.0, k, p) == min(int(p * k), k - 1)


def test_single_entry_paths_need_no_degree():
    assert choose_update_index(0.0, 1, 0.99) == 0


def test_degree_zero_takes_the_first_entry():
    # index 0 at every k, the d -> 0+ limit, though a walk's k >= 2 entries sum to >= k - 1
    for k in (1, 2, 3, 8, 10**5):
        for p in (0.0, 0.5, 0.999999):
            assert choose_update_index(0.0, k, p) == 0
        for p in (0.0, 0.5, 0.99):
            assert choose_update_index(1e-300, k, p) == 0


def test_monotone_in_p():
    previous = 0
    for i in range(200):
        p = i / 200
        value = choose_update_index(3.7, 7, p)
        assert value >= previous
        previous = value


def test_result_always_within_path():
    rng = random.Random(8)
    for _ in range(2000):
        d = rng.random() * 20 + 0.05
        k = rng.randrange(1, 40)
        value = choose_update_index(d, k, rng.random())
        assert 0 <= value <= k - 1


def test_huge_paths_do_not_overflow():
    # d**k far beyond float range: the log-space fallback must stay exact
    k = 100_000
    assert choose_update_index(4.0, k, 0.5) == k - 1
    assert choose_update_index(4.0, k, 0.0) == 0
    tiny = choose_update_index(4.0, k, 1e-300)
    assert 0 <= tiny < k
    previous = 0
    for p in (1e-12, 1e-6, 0.01, 0.5, 0.999999):
        value = choose_update_index(4.0, k, p)
        assert previous <= value <= k - 1
        previous = value


@pytest.mark.parametrize(
    "d,k,p",
    [
        (2.0, 0, 0.5),
        (2.0, 3, 1.0),
        (2.0, 3, -0.01),
        (-1.0, 3, 0.5),
        (math.nan, 3, 0.5),
        (math.inf, 3, 0.5),
    ],
)
def test_staircase_rejects_bad_parameters(d, k, p):
    refusals = r"path length k must be >= 1|p must be in \[0, 1\)|mean_degree must be finite and >= 0"
    with pytest.raises(ValueError, match=refusals):
        choose_update_index(d, k, p)


@pytest.mark.parametrize("d", [math.nan, math.inf])
@pytest.mark.parametrize("k", [1, 3])
def test_staircase_names_a_non_finite_mean_degree(d, k):
    with pytest.raises(ValueError, match=f"mean_degree must be finite and >= 0, got {d}"):
        choose_update_index(d, k, 0.5)


# --- configuration & seeding -------------------------------------------------


def test_config_defaults_are_the_control_setting():
    cfg = SimConfig()
    assert (cfg.n_peers, cfg.s) == (100, 1.0)
    assert (cfg.p_update, cfg.p_add, cfg.p_file, cfg.p_leave) == (0.5, 0.75, 0.5, 0.0)
    assert cfg.t_max == 100_000
    assert cfg.realizations == 10
    assert not cfg.literal_traversal


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_peers": 0},
        {"s": 0.0},
        {"p_update": 1.5},
        {"p_leave": -0.1},
        {"t_max": -1},
        {"realizations": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_peers": 10.5},
        {"n_peers": True},
        {"t_max": True},
        {"t_max": 2e4},
        {"realizations": 2.0},
        {"seed": 1.5},
        {"seed": None},
        {"s": "1"},
        {"p_update": False},
        {"literal_traversal": 1},
    ],
)
def test_config_rejects_wrong_types(kwargs):
    (name,) = kwargs
    with pytest.raises(TypeError, match=name):
        SimConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"s": math.nan},
        {"s": math.inf},
        {"p_update": math.nan},
        {"p_add": -math.inf},
        {"p_leave": math.nan},
    ],
)
def test_config_rejects_non_finite_floats(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SimConfig(**kwargs)


def test_config_bounds_t_max_by_the_4_byte_step_column():
    with pytest.raises(ValueError, match=r"t_max must be in \[0, 2\*\*31 - 1\], got 2147483648"):
        SimConfig(t_max=2**31)
    assert SimConfig(t_max=2**31 - 1).t_max == 2**31 - 1


def test_config_accepts_ints_for_float_fields():
    assert SimConfig(s=2, p_leave=0).s == 2


def test_the_config_of_a_simulation_cannot_be_assigned():
    # step reads the values bound when the simulation was made, so a new
    # config assigned later would be silently ignored
    config = SimConfig(n_peers=10, seed=3)
    sim, twin = Simulation(config), Simulation(config)
    with pytest.raises(AttributeError):
        sim.config = config._replace(p_update=0.0)
    assert sim.config is config
    for _ in range(50):
        assert sim.step() == twin.step()
    assert walk_state(sim) == walk_state(twin)


def test_derive_seed_is_stable_and_stream_dependent():
    assert derive_seed(42, "realization-0") == derive_seed(42, "realization-0")
    assert derive_seed(42, "realization-0") != derive_seed(42, "realization-1")
    assert derive_seed(42, "realization-0") != derive_seed(43, "realization-0")


def test_initial_state():
    sim = Simulation(SimConfig())
    assert sim.store.node_count == 4
    assert sim.peers.preferences_of(0) == {1: 1, 2: 1, 3: 1, 4: 1}
    for node in (1, 2, 3, 4):
        assert sim.index.counts_for(node) == {1: 1}
    resolved = namespace_of(sim.peers).resolve("node-1")
    assert len(resolved) == 1 and resolved[0][1] == 1
    assert sim.t == 0


# --- traversal ---------------------------------------------------------------


def test_traverse_hand_trace_on_initial_tree():
    sim = Simulation(SimConfig())
    # peer 0 views everything: no viewing draws.  Scripted draws: the peer,
    # the churn test (stay), root quality test (keep), child pick -> node 3,
    # its quality test (keep), update-position draw, update-decision draw
    # (no update).
    sim.rng = ScriptedRandom(randoms=[0.5, 0.3, 0.4, 0.0, 0.9], randranges=[0, 1])
    walked = spy_walk(sim)
    record = sim.step()
    assert record.peer == 0
    assert path_of(sim, record) == [(1, 1), (3, 1)]
    assert walked == [([1, 3], 3)]  # mean degree 1.5
    assert record.updated is None
    assert sim.rng.exhausted()
    assert sim.store.total_versions == 4  # nothing changed


def test_traverse_childless_root_path_of_one():
    sim = Simulation(SimConfig())
    sim.store.add_version(1, 0.9, (), created_at=0)
    sim.peers.set_preference(5, 1, 2)
    # peer 5; stay, keep, position, no update
    sim.rng = ScriptedRandom(randoms=[0.5, 0.3, 0.5, 0.9], randranges=[5])
    walked = spy_walk(sim)
    record = sim.step()
    assert path_of(sim, record) == [(1, 2)]
    assert walked == [([1], 0)]
    assert sim.rng.exhausted()


def test_traverse_updates_childless_root():
    sim = Simulation(SimConfig())
    sim.store.add_version(1, 0.9, (), created_at=0)
    sim.peers.set_preference(5, 1, 2)
    # peer 5; stay, keep, position, update yes; then inside the update: new
    # quality, delete-branch draw (> p_add but no links: falls through to
    # add), kind draw (directory), child quality
    sim.rng = ScriptedRandom(randoms=[0.5, 0.3, 0.5, 0.2, 0.6, 0.9, 0.7, 0.5], randranges=[5])
    record = sim.step()
    assert record == (5, [1], 1)
    assert sim.store.node_count == 5
    assert sim.store.version(1, 3).children == (5,)
    # the step ticks the clock before it walks
    assert sim.store.version(1, 3).created_at == sim.store.version(5, 1).created_at == sim.t == 1
    assert sim.rng.exhausted()


def test_quality_draws_below_q_never_deviate(monkeypatch):
    # Every quality test passes: each walker must follow its own preferences
    # exactly and never re-pick.  With p_update=0 only a re-pick that changes
    # the walker's version calls index.decrement.  Peers 0-4 hold version 1
    # of every node and peers 5-9 version 2, so a re-pick changes the
    # walker's version with probability 1/2, and 200 steps make about 400.
    # The walk binds the index's methods and the RNG's when it is bound, so
    # both are patched before the simulation and its RNG are set.
    decrement_calls = []
    original = PopularityIndex.decrement
    monkeypatch.setattr(
        PopularityIndex,
        "decrement",
        lambda index, *args: decrement_calls.append(args) or original(index, *args),
    )
    sim = Simulation(SimConfig(n_peers=10, p_update=0.0))
    for node in (1, 2, 3, 4):
        sim.store.add_version(node, 0.5, sim.store.version(node, 1).children, created_at=0)
        for peer in range(1, 10):
            sim.peers.set_preference(peer, node, 1 if peer < 5 else 2)
    held = [dict(sim.peers.preferences_of(peer)) for peer in range(10)]
    # only random() is pinned, which also keeps every peer from churning: a
    # subclass overriding it would also pin the integer draws, which Random
    # then derives from random()
    rng = random.Random(3)
    rng.random = lambda: 0.0
    sim.rng = rng
    walkers = set()
    for _ in range(200):
        walkers.add(sim.step().peer)
        # a re-pick would rewrite a preference, so each walker occupied the
        # versions it held throughout
        assert [sim.peers.preferences_of(peer) for peer in range(10)] == held
    assert walkers == set(range(10))
    assert decrement_calls == []


def test_traverse_record_invariants_over_a_run(monkeypatch):
    sim = Simulation(SimConfig(n_peers=10, p_file=0.9, seed=7))
    targets = []
    original = sim.apply_update

    def apply_update(node, version, peer):
        targets.append((node, version))
        return original(node, version, peer)

    monkeypatch.setattr(sim, "apply_update", apply_update)
    walked = spy_walk(sim)
    for _ in range(600):
        record = sim.step()
        occupied = dict(sim.peers.preferences_of(record.peer))
        if record.updated is not None:  # the version the update started from
            node, version = targets.pop()
            assert node == record.updated
            occupied[node] = version
        path = records(sim.store, occupied, record.path)
        assert path, "the walk always includes the root"
        assert all(v.is_dir for v in path)
        degree_sum = sum(len(v.children) for v in path)
        assert degree_sum >= len(path) - 1  # every entry but the last links the next
        assert walked.pop() == (record.path, degree_sum)
        assert path[0].node == 1


def test_walker_sums_the_degrees_of_the_versions_occupied():
    # peer 1 first views root v2 (one link), fails its quality test and
    # re-picks root v1 (three links), moves to node 3 and keeps it.  The
    # walk sums the versions occupied, 3 + 0, not those first viewed.
    sim = Simulation(SimConfig(n_peers=3))
    sim.store.add_version(1, 0.5, (2,), created_at=0)
    sim.peers.set_preference(1, 1, 2)
    # getrandbits(2) draws: the re-pick (0 of the root's 2 viewers: peer
    # 0's v1), then the child (1 of 3: node 3)
    rng = ScriptedRandom(randoms=[0.9, 0.0], randranges=[0, 1])
    walk = sim.peers.walker(rng)
    assert walk(1) == ([1, 3], 3)
    assert rng.exhausted()
    assert sim.peers.preferences_of(1) == {1: 1, 3: 1}
    assert sim.index.counts_for(1) == {1: 2}


# --- updates ------------------------------------------------------------------


def update(sim, node, version, peer):
    """`sim.apply_update` on version `version` of `node`; the new record."""
    fresh = sim.apply_update(node, version, peer)
    return sim.store.version(node, fresh)


def test_update_delete_branch():
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom(randoms=[0.42, 0.9], randranges=[0])
    fresh = update(sim, 1, 1, peer=1)
    assert fresh.version == 2
    assert fresh.children == (3, 4)  # dropped the first link
    assert fresh.quality == 0.42
    assert sim.store.node_count == 4  # delete never removes nodes
    assert sim.store.total_versions - sim.store.node_count == 1  # one update
    assert sim.peers.preference(1, 1) == 2
    # peer 0 still views the old root
    assert sim.index.counts_for(1) == {1: 1, 2: 1}


def test_update_add_directory_branch():
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom(randoms=[0.42, 0.3, 0.7, 0.55])
    fresh = update(sim, 1, 1, peer=1)
    assert fresh.children == (2, 3, 4, 5)
    child = sim.store.version(5, 1)
    assert child.is_dir and child.quality == 0.55
    # the updater is the first viewer of both creations
    assert sim.peers.preference(1, 1) == 2
    assert sim.peers.preference(1, 5) == 1
    assert sim.index.counts_for(5) == {1: 1}


def test_update_add_file_branch():
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom(randoms=[0.42, 0.3, 0.2, 0.55])
    update(sim, 1, 1, peer=2)
    child = sim.store.version(5, 1)
    assert not child.is_dir
    assert child.children == ()


def test_update_without_links_falls_through_to_add():
    sim = Simulation(SimConfig())
    # node 2 is a childless leaf directory
    sim.rng = ScriptedRandom(randoms=[0.42, 0.95, 0.7, 0.55])
    fresh = update(sim, 2, 1, peer=1)
    assert fresh.children == (5,)
    assert sim.store.node_count == 5


def test_update_copies_links_from_the_target_version():
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom(randoms=[0.42, 0.3, 0.7, 0.55])
    update(sim, 1, 1, peer=1)  # v2: (2, 3, 4, 5)
    sim.rng = ScriptedRandom(randoms=[0.13, 0.3, 0.7, 0.55])
    fresh = update(sim, 1, 1, peer=2)  # from v1, not v2
    assert fresh.children == (2, 3, 4, 6)


def test_update_rejects_file_targets():
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom(randoms=[0.42, 0.3, 0.2, 0.55])
    update(sim, 1, 1, peer=2)  # adds file node 5
    with pytest.raises(ValueError):
        update(sim, 5, 1, peer=2)


@pytest.mark.parametrize("node, version", [(0, 1), (-1, 1), (5, 1), (1, 0), (1, -1), (1, 2)])
def test_update_of_an_unknown_version_changes_nothing(node, version):
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom()  # no draw either
    with pytest.raises(LookupError):
        sim.apply_update(node, version, peer=1)
    assert (sim.store.node_count, sim.store.total_versions) == (4, 4)  # no update
    assert sim.peers.preferences_of(1) == {}


@pytest.mark.parametrize("peer", [3, -1, 10**9], ids=lambda peer: f"apply_update-{peer}")
def test_a_peer_outside_the_population_changes_nothing(peer):
    # a negative peer would act as peer 2, and peer 3 used to fail only
    # after the update had written its version and child
    sim = Simulation(SimConfig(n_peers=3, seed=6))
    for _ in range(50):
        sim.step()
    before = copy.deepcopy(walk_state(sim))
    with pytest.raises(IndexError, match=rf"^peer {peer} not in range\(n_peers=3\)$"):
        sim.apply_update(1, 1, peer)
    assert walk_state(sim) == before


SINGLE_NODE_CALLS = {
    "preference": lambda peers, peer, version, rng: peers.preference(peer, 1),
    "preferences_of": lambda peers, peer, version, rng: peers.preferences_of(peer),
    "set_preference": lambda peers, peer, version, rng: peers.set_preference(peer, 1, version),
    "viewing": lambda peers, peer, version, rng: peers.viewing(1, peer, rng),
    "select": lambda peers, peer, version, rng: peers.select(1, peer, rng),
    "churn_reset": lambda peers, peer, version, rng: peers.churn_reset(peer),
}


@pytest.mark.parametrize(
    "call, peer, version",
    [(call, peer, 1) for call in SINGLE_NODE_CALLS for peer in (-1, -3, 3)]
    + [("set_preference", 1, version) for version in (0, 99)],
)
def test_the_single_node_api_refuses_a_peer_or_version_it_does_not_hold(call, peer, version):
    # a negative peer used to act on another peer, and version 99 used to be
    # stored, failing the steps after it with a KeyError
    sim = Simulation(SimConfig(n_peers=3, seed=6))
    for _ in range(50):
        sim.step()
    invariants = Invariants(sim)
    invariants.check()
    before = copy.deepcopy(walk_state(sim))
    if version == 1:
        error, message = IndexError, rf"^peer {peer} not in range\(n_peers=3\)$"
    else:
        error, message = KeyError, f"^'node 1 has no version {version}'$"
    with pytest.raises(error, match=message):
        SINGLE_NODE_CALLS[call](sim.peers, peer, version, sim.rng)
    assert walk_state(sim) == before  # no write and no draw
    for _ in range(50):
        sim.step()
    invariants.check()


def test_update_single_link_delete_empties_the_version():
    sim = Simulation(SimConfig())
    sim.store.add_version(1, 0.5, (2,), created_at=0)
    sim.rng = ScriptedRandom(randoms=[0.42, 0.9])
    fresh = update(sim, 1, 2, peer=1)
    assert fresh.children == ()


# --- stepping and churn -------------------------------------------------------


def count_resets(monkeypatch, sim):
    """Record the peer of every churn_reset call `sim` makes."""
    resets = []
    original = sim.peers.churn_reset
    monkeypatch.setattr(
        sim.peers, "churn_reset", lambda peer: resets.append(peer) or original(peer)
    )
    return resets


def test_step_without_churn_never_resets(monkeypatch):
    sim = Simulation(SimConfig(p_leave=0.0, n_peers=20, seed=3))
    resets = count_resets(monkeypatch, sim)
    for _ in range(1000):
        sim.step()
    assert resets == []
    assert sim.t == 1000


def test_step_with_certain_churn_resets_every_chosen_peer(monkeypatch):
    sim = Simulation(SimConfig(p_leave=1.0, n_peers=10, seed=3))
    resets = count_resets(monkeypatch, sim)
    steps = 300
    walkers = [sim.step().peer for _ in range(steps)]
    assert resets == walkers


@pytest.mark.parametrize("n_peers, draws, peer", [(100, [120, 5], 5), (1, [1, 0], 0)])
def test_step_redraws_a_peer_outside_the_population(n_peers, draws, peer):
    # getrandbits(n_peers.bit_length()) can exceed n_peers - 1, and the
    # step's redraw is the only guard on the peer's range
    sim = Simulation(SimConfig(n_peers=n_peers, p_update=0.0))
    # the peer draws, then child 2; stay, keep the root, keep node 2,
    # position, no update
    sim.rng = ScriptedRandom(randoms=[0.5, 0.0, 0.0, 0.5, 0.5], randranges=[*draws, 0])
    assert sim.step() == (peer, [1, 2], None)
    assert sim.rng.exhausted()
    assert sim.peers.preferences_of(peer).items() >= {1: 1, 2: 1}.items()


def test_step_chooses_peers_uniformly():
    # binomial(10^4, 1/100): mean 100, sigma ~10; the +-30 band is ~3 sigma
    sim = Simulation(SimConfig(n_peers=100, seed=7))
    chosen = [0] * 100
    for _ in range(10_000):
        chosen[sim.step().peer] += 1
    assert all(70 <= count <= 130 for count in chosen)


# --- full runs ----------------------------------------------------------------


def test_run_of_zero_steps_reports_the_initial_tree():
    series = run_single(SimConfig(t_max=0, realizations=1))
    assert series.snapshots == [
        Snapshot(
            t=0,
            main_tree_size=4,
            main_tree_avg_quality=0.5,
            total_nodes=4,
            total_nodes_viewed=4,
            total_versions=4,
        )
    ]
    assert series.degree_histogram == {3: 1, 0: 3}
    assert series.viewers_histogram == {1: 4}
    assert series.majority_events == []


@pytest.fixture
def two_cpus(monkeypatch):
    """Let jobs=2 fork one worker on any host."""
    monkeypatch.setattr(engine, "available_cpus", lambda: 2)


def test_identical_configs_reproduce_bit_identical_series(two_cpus):
    cfg = SimConfig(t_max=2500, realizations=2, seed=99)
    first = run(cfg)
    second = run(cfg)
    assert first.series == second.series
    assert first.average == second.average
    serial, forked = run(cfg, jobs=1), run(cfg, jobs=2)
    assert serial.series == forked.series == first.series
    assert serial.average == forked.average == first.average


def test_different_seeds_differ():
    a = run_single(SimConfig(t_max=2000, realizations=1, seed=1))
    b = run_single(SimConfig(t_max=2000, realizations=1, seed=2))
    assert a.snapshots[-1] != b.snapshots[-1]


def test_update_volume_tracks_p_update():
    cfg = SimConfig(t_max=10_000, realizations=1, seed=42)
    final = run_single(cfg).snapshots[-1]
    updates = final.total_versions - final.total_nodes
    assert abs(updates - cfg.p_update * cfg.t_max) <= 0.05 * cfg.p_update * cfg.t_max


def test_snapshot_grid_includes_start_and_end():
    series = run_single(SimConfig(t_max=2500, realizations=1), snapshot_interval=1000)
    assert [snap.t for snap in series.snapshots] == [0, 1000, 2000, 2500]
    aligned = run_single(SimConfig(t_max=2000, realizations=1), snapshot_interval=1000)
    assert [snap.t for snap in aligned.snapshots] == [0, 1000, 2000]


def test_run_single_rejects_bad_interval():
    with pytest.raises(ValueError):
        run_single(SimConfig(t_max=10, realizations=1), snapshot_interval=0)


@pytest.mark.parametrize("interval", [2.5, 2.0, True, "2"])
def test_run_single_rejects_non_int_interval(interval):
    with pytest.raises(TypeError, match="snapshot_interval"):
        run_single(SimConfig(t_max=10, realizations=1), snapshot_interval=interval)


@contextmanager
def collector(enabled):
    """Run the block with the cyclic collector on or off, then restore it."""
    collecting = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if collecting else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_run_single_leaves_the_collector_alone(monkeypatch, collecting):
    seen = []
    original = Simulation.step

    def step(sim):
        seen.append(gc.isenabled())
        return original(sim)

    monkeypatch.setattr(Simulation, "step", step)
    with collector(collecting):
        run_single(SimConfig(n_peers=10, t_max=50, realizations=1))
        assert seen == [collecting] * 50
        assert gc.isenabled() is collecting


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(n_peers=20, t_max=3000, realizations=1),
        SimConfig(n_peers=200, t_max=3000, realizations=1, p_leave=0.9),
    ],
    ids=["default", "churn"],
)
def test_a_realization_leaves_no_cyclic_garbage(config):
    # a reference cycle would cost collector time on every run; with the
    # collector off during the run, whatever cycle it made is found here
    with collector(False):
        gc.collect()
        run_single(config)
        assert gc.collect() == 0


def test_every_update_adds_one_version_and_marks_its_record(monkeypatch):
    # nothing counts updates; the store's version surplus over its nodes is that count
    calls = []
    original = Simulation.apply_update

    def apply_update(sim, node, version, peer):
        calls.append(node)
        return original(sim, node, version, peer)

    monkeypatch.setattr(Simulation, "apply_update", apply_update)
    sim = Simulation(SimConfig(n_peers=30, p_leave=0.3, seed=11))
    updated = [record.updated for record in (sim.step() for _ in range(3000))]
    assert len(calls) > 1000
    assert len(calls) == sim.store.total_versions - sim.store.node_count
    assert [node for node in updated if node is not None] == calls


def test_namespace_resolution_tracks_viewer_counts():
    # resolve() must reflect live popularity after real dynamics, churn included
    sim = Simulation(SimConfig(n_peers=10, p_leave=0.2, seed=5))
    for _ in range(300):
        sim.step()
    for node in (1, 2, 3, 4):
        resolved = {
            record.description: count
            for record, count in namespace_of(sim.peers).resolve(f"node-{node}")
        }
        expected = {
            f"node-{node} v{j}": count
            for j, count in sim.index.counts_for(node).items()
        }
        assert resolved == expected


def test_metrics_do_not_perturb_the_trajectory():
    # Observing more often must not change what happened: snapshots at the
    # shared grid points must be identical.
    cfg = SimConfig(t_max=2000, realizations=1, seed=13)
    coarse = run_single(cfg, snapshot_interval=1000)
    fine = run_single(cfg, snapshot_interval=200)
    coarse_by_t = {snap.t: snap for snap in coarse.snapshots}
    fine_by_t = {snap.t: snap for snap in fine.snapshots}
    for t in (0, 1000, 2000):
        c, f = coarse_by_t[t], fine_by_t[t]
        # main-tree fields may differ through tie-break draws; the
        # trajectory fields may not
        assert (c.total_nodes, c.total_nodes_viewed, c.total_versions) == (
            f.total_nodes,
            f.total_nodes_viewed,
            f.total_versions,
        )


def test_direct_stepping_queues_each_crossing_version_once():
    # nothing observes a Simulation stepped directly, so nothing drains its
    # crossing queue; with churn, versions fall below the majority and climb
    # back, and each must still be queued once
    sim = Simulation(SimConfig(n_peers=10, p_leave=0.2, seed=4))
    for _ in range(5000):
        sim.step()
    queued = sim.index._crossings
    assert len(queued) > 50
    assert len(queued) == len(set(queued))


def test_majority_events_keep_their_exact_step():
    # run_single only looks for events on steps that queued a crossing; a
    # tracker observing every step must see the same events at the same steps
    cfg = SimConfig(n_peers=5, p_leave=0.3, t_max=1500, realizations=1, seed=4)
    sim = Simulation(cfg)
    tracker = MajorityTracker()
    tracker.observe(sim.store, sim.index, 0)
    while sim.t < cfg.t_max:
        sim.step()
        tracker.observe(sim.store, sim.index, sim.t)
    assert tracker.events
    assert run_single(cfg).majority_events == tracker.events


# --- the draw primitive -------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 42, 2**61 + 5])
def test_randbelow_draws_what_randrange_draws(seed):
    # the simulation calls Random._randbelow(n) where it means randrange(n);
    # both must give the same stream and leave the same state, for bounds at
    # and around every power of two up to 2048
    bounds = list(range(1, 2049)) * 2
    direct, reference = random.Random(seed), random.Random(seed)
    assert [direct._randbelow(n) for n in bounds] == [reference.randrange(n) for n in bounds]
    assert direct.getstate() == reference.getstate()


# --- engine property test -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    n_peers=st.integers(1, 6),
    p_leave=st.sampled_from([0.0, 0.5, 1.0]),
    p_update=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    steps=st.integers(1, 200),
)
def test_index_stays_consistent_over_engine_steps(n_peers, p_leave, p_update, seed, steps):
    sim = Simulation(SimConfig(n_peers=n_peers, p_leave=p_leave, p_update=p_update, seed=seed))
    invariants = Invariants(sim)
    invariants.check()
    for _ in range(steps):
        sim.step()
        invariants.check()


def test_a_run_at_a_vanishing_quality_shape_completes():
    # every update draw's power rounds up to 1.0 at s=1e-300
    series = run_single(SimConfig(s=1e-300, t_max=200, realizations=1), snapshot_interval=50)
    assert series.snapshots[-1].total_versions > 4


@settings(max_examples=100, deadline=None)
@given(
    n_peers=st.integers(1, 3),
    s=st.sampled_from([1e-300, 1e-3, 1.0, 50.0]),
    p_update=st.sampled_from([0.0, 1.0]),
    p_add=st.sampled_from([0.0, 1.0]),
    p_file=st.sampled_from([0.0, 1.0]),
    p_leave=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32),
)
@example(n_peers=1, s=1e-300, p_update=1.0, p_add=1.0, p_file=0.0, p_leave=0.0, seed=0)
def test_extreme_configs_run_and_keep_their_invariants(
    n_peers, s, p_update, p_add, p_file, p_leave, seed
):
    sim = Simulation(
        SimConfig(
            n_peers=n_peers,
            s=s,
            p_update=p_update,
            p_add=p_add,
            p_file=p_file,
            p_leave=p_leave,
            seed=seed,
        )
    )
    invariants = Invariants(sim)
    invariants.check()
    for _ in range(3):
        for _ in range(100):
            sim.step()
        invariants.check()


@settings(max_examples=100, deadline=None)
@given(
    n_peers=st.integers(1, 6),
    p_add=st.sampled_from([0.0, 0.5, 1.0]),
    p_file=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32),
    updates=st.lists(
        st.tuples(st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 5)),
        min_size=1,
        max_size=60,
    ),
)
def test_update_sequences_outside_the_walk(n_peers, p_add, p_file, seed, updates):
    # apply_update driven directly: each update targets a drawn version of
    # a drawn directory node as a drawn peer
    sim = Simulation(SimConfig(n_peers=n_peers, p_add=p_add, p_file=p_file, seed=seed))
    store, peers = sim.store, sim.peers
    invariants = Invariants(sim)
    invariants.check()  # published versions stay as this call sees them
    for node_pick, version_pick, peer in updates:
        directories = [
            node for node in range(1, store.node_count + 1) if store.version(node, 1).is_dir
        ]
        node = directories[node_pick % len(directories)]
        target = store.version(node, version_pick % store.version_count(node) + 1)
        peer %= n_peers
        versions = store.version_count(node)
        node_count = store.node_count

        fresh = update(sim, node, target.version, peer)

        invariants.check()
        assert (fresh.node, fresh.is_dir) == (node, True)
        assert fresh.version == len(store.versions_of(node)) == versions + 1
        links = target.children
        if store.node_count == node_count:  # one link dropped
            assert any(
                fresh.children == links[:i] + links[i + 1 :] for i in range(len(links))
            )
        else:  # one new node linked
            child = store.node_count
            assert store.node_count == node_count + 1
            assert fresh.children == links + (child,)
            assert len(store.versions_of(child)) == 1
            assert peers.preference(peer, child) == 1
        assert peers.preference(peer, node) == fresh.version


def walk_state(sim):
    """Everything a step writes: preferences and index in dict order, the
    store, the clock, the update count and the RNG."""
    index, store = sim.index, sim.store
    return (
        [list(prefs.items()) for prefs in sim.peers._prefs],
        [(node, list(counts.items())) for node, counts in index._counts.items()],
        index._leader,
        index._bound,
        index._totals,
        index._crossings,
        index.viewed_node_count,
        store._quality,
        store._created,
        store._children,
        store._first,
        store._later,
        sim.t,
        store.total_versions - store.node_count,  # updates performed
        sim.rng.getstate(),
    )


@settings(max_examples=100, deadline=None)
@given(
    n_peers=st.integers(1, 6),
    p_leave=st.sampled_from([0.0, 0.5, 1.0]),
    p_update=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    steps=st.integers(1, 200),
)
def test_fused_walk_matches_the_reference_walk(n_peers, p_leave, p_update, seed, steps):
    # PeerPopulation.walker's walk against the walk built on viewing/select
    config = SimConfig(n_peers=n_peers, p_leave=p_leave, p_update=p_update, seed=seed)
    assert_steps_match_the_reference(config, steps)


def test_assigning_rng_reroutes_every_draw_of_a_step():
    # the walk is bound to the RNG when one is assigned: every draw of a step
    # (the peer, churn, the walk, the update position and decision, the
    # update itself) must then come from the new RNG, none from the old
    config = SimConfig(n_peers=10, p_leave=0.3, seed=5)
    sim, reference = Simulation(config), Simulation(config)
    replaced = sim.rng
    untouched = replaced.getstate()
    sim.rng, reference.rng = random.Random(99), random.Random(99)
    for _ in range(300):
        assert sim.step() == reference_step(reference)
        assert walk_state(sim) == walk_state(reference)
    assert replaced.getstate() == untouched
    # nothing bound refers back to the simulation: reference counting alone frees it
    freed = weakref.ref(sim)
    del sim
    assert freed() is None


@pytest.mark.parametrize(
    "config",
    [SimConfig(n_peers=100, seed=3), SimConfig(n_peers=1000, p_leave=0.9, seed=3)],
    ids=["control", "churn_crowd"],
)
def test_benchmark_sized_runs_match_the_reference_step(config):
    # the inlined getrandbits loops see bounds up to n_peers and the
    # largest viewer totals, not only the few peers of the property test
    assert_steps_match_the_reference(config, 2000)


def assert_steps_match_the_reference(config, steps):
    """Step twin simulations through `Simulation.step` and `reference_step`
    and compare what each step returned and wrote, and what each passed to
    `choose_update_index`: the degree sum counts wherever it is used.  When
    the steps end, both states must keep the invariants."""
    fused, reference = Simulation(config), Simulation(config)
    with staircase_inputs(engine) as used, staircase_inputs(support) as expected_used:
        for _ in range(steps):
            record, expected = fused.step(), reference_step(reference)
            assert record == expected
            assert used == expected_used
            assert walk_state(fused) == walk_state(reference)
    Invariants(fused).check()
    Invariants(reference).check()


# --- parallel realizations ----------------------------------------------------


@pytest.mark.parametrize(
    "jobs, realizations, cpus, can_fork, expected",
    [
        (None, 10, 2, True, 2),  # default: the available CPUs
        (None, 1, 2, True, 1),  # never more processes than realizations
        (None, 10, 64, True, 10),
        (1, 10, 2, True, 1),
        (2, 10, 2, True, 2),
        (10**6, 10, 2, True, 2),  # capped at the CPUs
        (10**6, 3, 64, True, 3),  # capped at the realizations
        (None, 10**6, 10**6, True, 10**6),
        (None, 10, 2, False, 1),  # no fork: one process
        (10**6, 10**6, 10**6, False, 1),
    ],
)
def test_process_count_caps_the_requested_jobs(jobs, realizations, cpus, can_fork, expected):
    assert process_count(jobs, realizations, cpus, can_fork) == expected


@pytest.mark.parametrize(
    "jobs, error", [(0, ValueError), (-1, ValueError), (True, TypeError), (2.0, TypeError), ("2", TypeError)]
)
def test_bad_job_counts_are_refused_before_anything_runs(jobs, error, monkeypatch):
    with pytest.raises(error, match="jobs"):
        process_count(jobs, 10, 2, False)
    monkeypatch.setattr(engine, "run_single", None)  # a run would fail on calling it
    with pytest.raises(error, match="jobs"):
        run(SimConfig(t_max=10, realizations=2), jobs=jobs)


def test_forked_realizations_come_back_in_realization_order(two_cpus):
    # three realizations over two processes: realization 0 in the worker,
    # 1 and 2 in the caller
    cfg = SimConfig(n_peers=20, t_max=600, realizations=3, seed=8)
    result = run(cfg, snapshot_interval=100, jobs=2)
    assert result.series == [run_single(cfg, k, 100) for k in range(3)]
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_at(monkeypatch, realization, fail):
    """Make run_single call fail() for one realization."""
    original = engine.run_single

    def run_single(config, k, snapshot_interval):
        if k == realization:
            fail()
        return original(config, k, snapshot_interval)

    monkeypatch.setattr(engine, "run_single", run_single)


def raise_value_error():
    raise ValueError("realization failed")


CFG_2 = SimConfig(n_peers=10, t_max=300, realizations=2, seed=3)


def test_a_worker_exception_is_raised_in_the_caller(two_cpus, monkeypatch):
    fail_at(monkeypatch, 0, raise_value_error)  # realization 0 runs in the worker
    with pytest.raises(ValueError) as excinfo:
        run(CFG_2, snapshot_interval=100, jobs=2)
    assert str(excinfo.value) == "realization failed"  # type and message unchanged
    if hasattr(excinfo.value, "__notes__"):  # Python 3.11+: the worker's traceback
        assert "raised in realization worker" in excinfo.value.__notes__[0]
    assert_no_child_left()


def test_a_failure_in_the_callers_block_kills_and_reaps_the_worker(two_cpus, monkeypatch):
    fail_at(monkeypatch, 1, raise_value_error)  # the last realization runs in the caller
    with pytest.raises(ValueError, match="realization failed"):
        run(CFG_2, snapshot_interval=100, jobs=2)
    assert_no_child_left()


def test_a_worker_that_exits_without_a_result_is_an_error(two_cpus, monkeypatch):
    caller = os.getpid()

    def exit_in_worker():
        if os.getpid() != caller:
            os._exit(3)
        raise AssertionError("realization 0 ran in the caller")

    fail_at(monkeypatch, 0, exit_in_worker)
    with pytest.raises(RuntimeError, match=r"worker \d+ exited without a result \(wait status 768\)"):
        run(CFG_2, snapshot_interval=100, jobs=2)
    assert_no_child_left()


def process_state(pid):
    """The state letter of `pid` in /proc/<pid>/stat, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs fork and /proc")
def test_a_worker_whose_caller_is_killed_starts_no_further_realization(tmp_path):
    # two processes in all: a caller that forks one worker for realizations
    # 0 and 1, and runs 2 and 3 itself; each start is logged as "<pid> <k>"
    log = tmp_path / "started.log"
    log.touch()
    src = Path(engine.__file__).resolve().parents[1]
    script = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from poptree import engine\n"
        "engine.available_cpus = lambda: 2\n"
        "original = engine.run_single\n"
        "def run_single(config, k, snapshot_interval):\n"
        f"    with open({str(log)!r}, 'a') as handle:\n"
        "        handle.write(f'{os.getpid()} {k}\\n')\n"
        "    return original(config, k, snapshot_interval)\n"
        "engine.run_single = run_single\n"
        "engine.run(engine.SimConfig(t_max=30_000, realizations=4), jobs=2)\n"
    )
    deadline = time.monotonic() + 60
    caller = subprocess.Popen([sys.executable, "-I", "-c", script])
    worker = None
    try:
        while worker is None:
            assert time.monotonic() < deadline, "the worker never started realization 0"
            assert caller.poll() is None, "the caller exited before its worker started"
            text = log.read_text()
            for line in text[: text.rfind("\n") + 1].splitlines():  # whole lines
                pid, k = line.split()
                if int(pid) != caller.pid and k == "0":
                    worker = int(pid)
            time.sleep(0.005)
        caller.kill()
        caller.wait(timeout=60)
        while process_state(worker) not in (None, "Z"):
            assert time.monotonic() < deadline, "the orphaned worker is still running"
            time.sleep(0.01)
    finally:
        if caller.poll() is None:
            caller.kill()
            caller.wait(timeout=60)
        if worker is not None and process_state(worker) not in (None, "Z"):
            os.kill(worker, signal.SIGKILL)
    assert f"{worker} 1" not in log.read_text().splitlines()
