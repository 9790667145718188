"""Engine: update-position staircase, traversal walk, updates, runs."""

import math
import random
from dataclasses import replace

import pytest

from poptree.engine import (
    SimConfig,
    Simulation,
    choose_update_index,
    derive_seed,
    run,
    run_single,
)
from poptree.metrics import Snapshot
from support import ScriptedRandom

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
    [(2.0, 0, 0.5), (2.0, 3, 1.0), (2.0, 3, -0.01), (-1.0, 3, 0.5), (0.0, 2, 0.5)],
)
def test_staircase_rejects_bad_parameters(d, k, p):
    with pytest.raises(ValueError):
        choose_update_index(d, k, p)


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


def test_config_accepts_ints_for_float_fields():
    assert SimConfig(s=2, p_leave=0).s == 2


def test_derive_seed_is_stable_and_stream_dependent():
    assert derive_seed(42, "realization-0") == derive_seed(42, "realization-0")
    assert derive_seed(42, "realization-0") != derive_seed(42, "realization-1")
    assert derive_seed(42, "realization-0") != derive_seed(43, "realization-0")


def test_initial_state():
    sim = Simulation(SimConfig())
    assert sim.store.node_count == 4
    assert sim.peers.preferences_of(0) == {1: 1, 2: 1, 3: 1, 4: 1}
    for node in (1, 2, 3, 4):
        assert sim.index.count(node, 1) == 1
    resolved = sim.namespace.resolve("node-1")
    assert len(resolved) == 1 and resolved[0][1] == 1
    assert sim.t == 0


# --- traversal ---------------------------------------------------------------


def test_traverse_hand_trace_on_initial_tree():
    sim = Simulation(SimConfig())
    # peer 0 views everything: no viewing draws.  Scripted draws: root
    # quality test (keep), child pick -> node 3, its quality test (keep),
    # update-position draw, update-decision draw (no update).
    sim.rng = ScriptedRandom(randoms=[0.3, 0.4, 0.0, 0.9], randranges=[1])
    record = sim.traverse(0)
    assert [(v.node, v.version) for v in record.path] == [(1, 1), (3, 1)]
    assert record.degree_sum == 3
    assert record.mean_degree == 1.5
    assert record.updated is None
    assert sim.rng.exhausted()
    assert sim.store.total_versions == 4  # nothing changed


def test_traverse_childless_root_path_of_one():
    sim = Simulation(SimConfig())
    sim.store.add_version(1, 0.9, (), created_at=0)
    sim.peers.set_preference(5, 1, 2)
    sim.rng = ScriptedRandom(randoms=[0.3, 0.5, 0.9])  # keep, position, no update
    record = sim.traverse(5)
    assert [(v.node, v.version) for v in record.path] == [(1, 2)]
    assert record.degree_sum == 0
    assert record.mean_degree == 0.0
    assert sim.rng.exhausted()


def test_traverse_updates_childless_root():
    sim = Simulation(SimConfig())
    sim.store.add_version(1, 0.9, (), created_at=0)
    sim.peers.set_preference(5, 1, 2)
    # keep, position, update yes; then inside the update: new quality,
    # delete-branch draw (> p_add but no links: falls through to add),
    # kind draw (directory), child quality
    sim.rng = ScriptedRandom(randoms=[0.3, 0.5, 0.2, 0.6, 0.9, 0.7, 0.5])
    record = sim.traverse(5)
    assert record.updated == 1
    assert sim.store.node_count == 5
    assert sim.store.version(1, 3).children == (5,)
    assert sim.rng.exhausted()


def test_quality_draws_below_q_never_deviate(monkeypatch):
    # Every quality test passes: the walk must follow the peer's own
    # preferences exactly and never call select.
    class KeepRandom(random.Random):
        def random(self):
            return 0.0

    sim = Simulation(SimConfig(p_update=0.0))
    sim.rng = KeepRandom(3)
    select_calls = []
    original = sim.peers.select
    monkeypatch.setattr(
        sim.peers,
        "select",
        lambda *args: select_calls.append(args) or original(*args),
    )
    for _ in range(100):
        record = sim.traverse(0)
        for v in record.path:
            assert sim.peers.preference(0, v.node) == v.version
    assert select_calls == []


def test_traverse_record_invariants_over_a_run():
    sim = Simulation(SimConfig(n_peers=10, p_file=0.9, seed=7))
    for _ in range(600):
        record = sim.step()
        assert record.path, "default walk always includes the root"
        assert all(v.is_dir for v in record.path)
        assert record.mean_degree == record.degree_sum / len(record.path)
        assert record.path[0].node == 1


# --- literal pseudocode variant ----------------------------------------------


def test_literal_trace_excludes_root_from_path():
    sim = Simulation(SimConfig(literal_traversal=True))
    sim.rng = ScriptedRandom(randoms=[0.3, 0.4, 0.0, 0.9], randranges=[1])
    record = sim.traverse(0)
    assert [(v.node, v.version) for v in record.path] == [(3, 1)]
    assert record.degree_sum == 3  # the root's degree still counts
    assert record.mean_degree == 3.0
    assert sim.rng.exhausted()


def test_literal_empty_path_skips_the_update():
    sim = Simulation(SimConfig(literal_traversal=True))
    sim.store.add_version(1, 0.9, (), created_at=0)
    sim.peers.set_preference(5, 1, 2)
    sim.rng = ScriptedRandom(randoms=[0.3])  # only the root quality test
    record = sim.traverse(5)
    assert record.path == []
    assert record.mean_degree == 0.0
    assert record.updated is None
    assert sim.rng.exhausted()


def test_literal_variant_changes_the_trajectory():
    base = SimConfig(t_max=2000, realizations=1, seed=11)
    default = run_single(base)
    literal = run_single(replace(base, literal_traversal=True))
    assert default.snapshots[-1] != literal.snapshots[-1]


# --- updates ------------------------------------------------------------------


def test_update_delete_branch():
    sim = Simulation(SimConfig())
    target = sim.store.version(1, 1)
    sim.rng = ScriptedRandom(randoms=[0.42, 0.9], randranges=[0])
    fresh = sim.apply_update(target, peer=1)
    assert fresh.version == 2
    assert fresh.children == (3, 4)  # dropped the first link
    assert fresh.quality == 0.42
    assert sim.store.node_count == 4  # delete never removes nodes
    assert sim.updates_performed == 1
    assert sim.peers.preference(1, 1) == 2
    assert sim.index.count(1, 2) == 1
    assert sim.index.count(1, 1) == 1  # peer 0 still views the old root


def test_update_add_directory_branch():
    sim = Simulation(SimConfig())
    target = sim.store.version(1, 1)
    sim.rng = ScriptedRandom(randoms=[0.42, 0.3, 0.7, 0.55])
    fresh = sim.apply_update(target, peer=1)
    assert fresh.children == (2, 3, 4, 5)
    child = sim.store.version(5, 1)
    assert child.is_dir and child.quality == 0.55
    # the updater is the first viewer of both creations
    assert sim.peers.preference(1, 1) == 2
    assert sim.peers.preference(1, 5) == 1
    assert sim.index.count(5, 1) == 1


def test_update_add_file_branch():
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom(randoms=[0.42, 0.3, 0.2, 0.55])
    sim.apply_update(sim.store.version(1, 1), peer=2)
    child = sim.store.version(5, 1)
    assert not child.is_dir
    assert child.children == ()


def test_update_without_links_falls_through_to_add():
    sim = Simulation(SimConfig())
    target = sim.store.version(2, 1)  # childless leaf directory
    sim.rng = ScriptedRandom(randoms=[0.42, 0.95, 0.7, 0.55])
    fresh = sim.apply_update(target, peer=1)
    assert fresh.children == (5,)
    assert sim.store.node_count == 5


def test_update_copies_links_from_the_target_version():
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom(randoms=[0.42, 0.3, 0.7, 0.55])
    sim.apply_update(sim.store.version(1, 1), peer=1)  # v2: (2, 3, 4, 5)
    sim.rng = ScriptedRandom(randoms=[0.13, 0.3, 0.7, 0.55])
    fresh = sim.apply_update(sim.store.version(1, 1), peer=2)  # from v1, not v2
    assert fresh.children == (2, 3, 4, 6)


def test_update_rejects_file_targets():
    sim = Simulation(SimConfig())
    sim.rng = ScriptedRandom(randoms=[0.42, 0.3, 0.2, 0.55])
    sim.apply_update(sim.store.version(1, 1), peer=2)  # adds file node 5
    with pytest.raises(ValueError):
        sim.apply_update(sim.store.version(5, 1), peer=2)


def test_update_single_link_delete_empties_the_version():
    sim = Simulation(SimConfig())
    sim.store.add_version(1, 0.5, (2,), created_at=0)
    sim.rng = ScriptedRandom(randoms=[0.42, 0.9])
    fresh = sim.apply_update(sim.store.version(1, 2), peer=1)
    assert fresh.children == ()


# --- stepping and churn -------------------------------------------------------


def test_step_without_churn_never_resets():
    sim = Simulation(SimConfig(p_leave=0.0, n_peers=20, seed=3))
    for _ in range(1000):
        sim.step()
    assert all(sim.peers.generation(u) == 0 for u in range(20))
    assert sim.t == 1000


def test_step_with_certain_churn_resets_every_chosen_peer():
    sim = Simulation(SimConfig(p_leave=1.0, n_peers=10, seed=3))
    steps = 300
    for _ in range(steps):
        sim.step()
    assert sum(sim.peers.generation(u) for u in range(10)) == steps


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


def test_identical_configs_reproduce_bit_identical_series():
    cfg = SimConfig(t_max=2500, realizations=2, seed=99)
    first = run(cfg)
    second = run(cfg)
    assert first.series == second.series
    assert first.average == second.average


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


def test_namespace_resolution_tracks_viewer_counts():
    # resolve() must reflect live popularity after real dynamics, churn included
    sim = Simulation(SimConfig(n_peers=10, p_leave=0.2, seed=5))
    for _ in range(300):
        sim.step()
    for node in (1, 2, 3, 4):
        resolved = {
            record.description: count
            for record, count in sim.namespace.resolve(f"node-{node}")
        }
        expected = {
            f"node-{node} v{j}": count
            for j, count in sim.index.counts_for(node).items()
        }
        assert resolved == expected


def test_limited_resolution_is_a_function_of_the_config():
    def sampled(seed):
        sim = Simulation(SimConfig(n_peers=50, seed=seed))
        for _ in range(500):
            sim.step()
        namespace = sim.namespace
        return [namespace.resolve(f"node-{node}", limit=5) for node in (1, 2, 3, 4)]

    assert sampled(3) == sampled(3)


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
