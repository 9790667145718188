"""Metrics extraction: snapshots, histograms, majority tracking."""

import math
import random

import pytest

from poptree.directory import DirectoryStore, init_control_tree, main_tree
from poptree.engine import SimConfig, Simulation, run_single
from poptree.metrics import (
    AverageSnapshot,
    MajorityTracker,
    QualityBucket,
    Snapshot,
    average_snapshots,
    degree_histogram,
    snapshot,
    viewers_by_quality,
    viewers_histogram,
)
from poptree.peers import PeerPopulation
from support import ScriptedRandom, pick_popular


def viewed_population(n_peers=10):
    """Initial control tree with peer 0 viewing every version."""
    store = DirectoryStore()
    init_control_tree(store)
    pop = PeerPopulation(n_peers, store)
    for node in (1, 2, 3, 4):
        pop.set_preference(0, node, 1)
    return store, pop


def test_snapshot_of_initial_state():
    store, pop = viewed_population()
    snap = snapshot(store, pop.index, 0, main_tree(store, pop.index, random.Random(1)))
    assert snap == Snapshot(
        t=0,
        main_tree_size=4,
        main_tree_avg_quality=0.5,
        total_nodes=4,
        total_nodes_viewed=4,
        total_versions=4,
    )


def test_snapshot_after_one_add_update_enumerates_both_outcomes():
    # Root v1 (peer 0) and the freshly added v2 (peer 1) tie at one viewer
    # each, so the main tree flips between the old 4-node tree and the new
    # 5-node one depending on the tie-break.
    sim = Simulation(SimConfig(n_peers=2))
    sim.rng = ScriptedRandom(randoms=[0.6, 0.3, 0.7, 0.8])  # force the add branch
    sim.apply_update(1, 1, peer=1)
    sizes = {4: 0, 5: 0}
    trials = 1000
    for trial in range(trials):
        tree = main_tree(sim.store, sim.index, random.Random(trial))
        snap = snapshot(sim.store, sim.index, 1, tree)
        sizes[snap.main_tree_size] += 1
    assert sizes[4] + sizes[5] == trials
    assert abs(sizes[5] / trials - 0.5) < 0.05


def test_snapshot_counts_unviewed_nodes_separately():
    store, pop = viewed_population()
    store.add_node(True, 0.4, created_at=1)  # never viewed, never linked
    snap = snapshot(store, pop.index, 1, main_tree(store, pop.index, random.Random(0)))
    assert snap.total_nodes == 5
    assert snap.total_nodes_viewed == 4
    assert snap.main_tree_size == 4


def test_degree_histogram_of_initial_tree():
    store, pop = viewed_population()
    assert degree_histogram(store, pop.index, random.Random(0)) == {3: 1, 0: 3}


def test_degree_histogram_single_childless_node():
    store = DirectoryStore()
    store.add_node(True, 0.5, created_at=0)
    pop = PeerPopulation(4, store)
    pop.set_preference(0, 1, 1)
    assert degree_histogram(store, pop.index, random.Random(0)) == {0: 1}


def test_degree_histogram_star():
    d = 6
    store = DirectoryStore()
    store.add_node(True, 0.5, created_at=0, children=tuple(range(2, d + 2)))
    for _ in range(d):
        store.add_node(False, 0.5, created_at=0)
    pop = PeerPopulation(4, store)
    for node in range(1, d + 2):
        pop.set_preference(0, node, 1)
    assert degree_histogram(store, pop.index, random.Random(0)) == {d: 1, 0: d}


def test_degree_histogram_skips_unviewed_nodes():
    store, pop = viewed_population()
    store.add_node(True, 0.4, created_at=1)
    hist = degree_histogram(store, pop.index, random.Random(0))
    assert sum(hist.values()) == 4


def test_degree_histogram_uses_most_popular_version():
    store = DirectoryStore()
    store.add_node(True, 0.5, created_at=0, children=(2, 3))
    store.add_node(False, 0.5, created_at=0)
    store.add_node(False, 0.5, created_at=0)
    store.add_version(1, 0.5, (2,), created_at=1)  # degree 1
    pop = PeerPopulation(4, store)
    pop.set_preference(0, 1, 2)
    pop.set_preference(1, 1, 2)
    pop.set_preference(2, 1, 1)
    assert degree_histogram(store, pop.index, random.Random(0)) == {1: 1}


def test_viewers_histogram_of_initial_tree():
    _, pop = viewed_population()
    assert viewers_histogram(pop.index) == {1: 4}


def test_viewers_histogram_counts_shared_versions():
    _, pop = viewed_population()
    pop.set_preference(1, 1, 1)  # second viewer on the root version
    assert viewers_histogram(pop.index) == {2: 1, 1: 3}


def test_viewers_histogram_excludes_zero_viewer_versions():
    _, pop = viewed_population()
    pop.churn_reset(0)
    assert viewers_histogram(pop.index) == {}


def test_viewers_histogram_mass_equals_total_registrations():
    series_sim = Simulation(SimConfig(n_peers=10, seed=8))
    for _ in range(400):
        series_sim.step()
    hist = viewers_histogram(series_sim.index)
    mass = sum(count * freq for count, freq in hist.items())
    registrations = sum(
        len(series_sim.peers.preferences_of(u)) for u in range(10)
    )
    assert mass == registrations
    assert mass <= 10 * series_sim.store.node_count


def test_viewers_by_quality_initial_tree():
    store, pop = viewed_population()
    buckets = viewers_by_quality(store, pop.index)
    assert len(buckets) == 10
    assert [b.versions for b in buckets] == [0, 0, 0, 0, 0, 4, 0, 0, 0, 0]
    assert buckets[5].mean_viewers == 1.0
    assert buckets[0].mean_viewers is None


def test_viewers_by_quality_buckets_partition_all_versions():
    store, pop = viewed_population()
    rng = random.Random(6)
    for _ in range(50):
        store.add_node(rng.random() < 0.5, rng.random(), created_at=1)
    buckets = viewers_by_quality(store, pop.index)
    assert sum(b.versions for b in buckets) == store.total_versions
    for b in buckets:
        assert b.hi - b.lo == pytest.approx(0.1)


def test_viewers_by_quality_mixture():
    store = DirectoryStore()
    store.add_node(True, 0.05, created_at=0)
    store.add_node(True, 0.95, created_at=0)
    pop = PeerPopulation(6, store)
    for peer in (0, 1):
        pop.set_preference(peer, 1, 1)
    for peer in (0, 1, 2, 3):
        pop.set_preference(peer, 2, 1)
    buckets = viewers_by_quality(store, pop.index)
    assert buckets[0].mean_viewers == 2.0
    assert buckets[9].mean_viewers == 4.0


def test_viewers_by_quality_puts_the_highest_quality_in_the_top_decile():
    store = DirectoryStore()
    store.add_node(True, math.nextafter(1.0, 0.0), created_at=0)
    pop = PeerPopulation(2, store)
    pop.set_preference(0, 1, 1)
    buckets = viewers_by_quality(store, pop.index)
    assert (buckets[9].versions, buckets[9].total_viewers) == (1, 1)


# --- majority tracking --------------------------------------------------------


def test_histograms_equal_a_recount_by_the_reference_scan():
    # degree_histogram picks through the index's leaders and viewers_by_quality
    # sums the index's counts; a recount with pick_popular and one count per
    # version must agree, draw for draw
    sim = Simulation(SimConfig(n_peers=8, p_leave=0.3, seed=21))
    for _ in range(3000):
        sim.step()
    store, index = sim.store, sim.index

    reference_rng = random.Random(5)
    degrees: dict[int, int] = {}
    for node in range(1, store.node_count + 1):
        counts = index.counts_for(node)
        if counts:
            j = pick_popular(store.version_count(node), counts, reference_rng)
            degree = len(store.version(node, j).children)
            degrees[degree] = degrees.get(degree, 0) + 1
    versions, viewers = [0] * 10, [0] * 10
    for node in range(1, store.node_count + 1):
        counts = index.counts_for(node)
        for v in store.versions_of(node):
            bucket = min(int(v.quality * 10), 9)
            versions[bucket] += 1
            viewers[bucket] += counts.get(v.version, 0)
    assert reference_rng.getstate() != random.Random(5).getstate(), "no tie was drawn"

    rng = random.Random(5)
    histogram = degree_histogram(store, index, rng)
    assert list(histogram.items()) == list(degrees.items())
    assert rng.getstate() == reference_rng.getstate()
    assert viewers_by_quality(store, index) == [
        QualityBucket(b / 10, (b + 1) / 10, versions[b], viewers[b]) for b in range(10)
    ]


def test_majority_fires_only_above_half():
    # N=10: six viewers are a majority, five are not
    store, pop = viewed_population(n_peers=10)
    store.add_version(1, 0.8, (2, 3, 4), created_at=20)
    tracker = MajorityTracker()
    for peer in range(5):
        pop.set_preference(peer, 1, 2)
    assert tracker.observe(store, pop.index, 30) == []
    pop.set_preference(5, 1, 2)
    events = tracker.observe(store, pop.index, 50)
    assert len(events) == 1
    event = events[0]
    assert (event.node, event.version) == (1, 2)
    assert event.created_at == 20
    assert event.reached_at == 50
    assert event.reached_at - event.created_at == 30
    assert event.quality == 0.8


def test_majority_fires_once_even_after_recrossing():
    store, pop = viewed_population(n_peers=4)
    tracker = MajorityTracker()
    for peer in (1, 2):
        pop.set_preference(peer, 1, 1)  # with peer 0: three viewers
    assert len(tracker.observe(store, pop.index, 5)) == 1
    pop.churn_reset(2)
    pop.set_preference(3, 1, 1)  # crosses again
    assert tracker.observe(store, pop.index, 9) == []
    assert len(tracker.events) == 1


def test_initial_single_viewers_never_reach_majority_at_scale():
    series = run_single(SimConfig(t_max=0, realizations=1))
    assert series.majority_events == []


def test_majority_events_are_time_monotone_in_a_run():
    series = run_single(SimConfig(t_max=4000, realizations=1, n_peers=10, seed=21))
    times = [event.reached_at for event in series.majority_events]
    assert times == sorted(times)
    assert len(set((e.node, e.version) for e in series.majority_events)) == len(times)
    for event in series.majority_events:
        assert event.reached_at >= event.created_at


# --- averaging ----------------------------------------------------------------


def test_average_snapshots_pointwise_mean():
    a = [Snapshot(0, 4, 0.5, 4, 4, 4), Snapshot(10, 6, 0.6, 8, 8, 9)]
    b = [Snapshot(0, 4, 0.5, 4, 4, 4), Snapshot(10, 8, 0.8, 10, 9, 13)]
    averaged = average_snapshots([a, b])
    assert averaged == [
        AverageSnapshot(0, 4.0, 0.5, 4.0, 4.0, 4.0),
        AverageSnapshot(10, 7.0, 0.7, 9.0, 8.5, 11.0),
    ]


def test_average_snapshots_sums_each_column_as_a_left_fold():
    # the same last bit on every interpreter: built-in sum() is compensated
    # from Python 3.12 on and gives 0.1 here
    series = [[Snapshot(0, 1, 0.1, 1, 1, 1)] for _ in range(10)]
    (averaged,) = average_snapshots(series)
    assert averaged.main_tree_avg_quality == 0.09999999999999999


def test_average_snapshots_rejects_mismatched_grids():
    a = [Snapshot(0, 4, 0.5, 4, 4, 4)]
    b = [Snapshot(0, 4, 0.5, 4, 4, 4), Snapshot(10, 4, 0.5, 4, 4, 4)]
    with pytest.raises(ValueError):
        average_snapshots([a, b])
    c = [Snapshot(5, 4, 0.5, 4, 4, 4)]
    with pytest.raises(ValueError):
        average_snapshots([a, c])


def test_average_of_empty_input():
    assert average_snapshots([]) == []


def test_final_tree_matches_final_snapshot():
    series = run_single(SimConfig(t_max=1500, realizations=1, seed=4))
    tree = series.final_main_tree
    final = series.snapshots[-1]
    assert tree is not None
    assert tree.size == final.main_tree_size
    assert tree.mean_quality == final.main_tree_avg_quality
    # a recount over the tree's versions gives the recorded average
    recomputed = sum(v.quality for v in tree.nodes.values()) / tree.size
    assert recomputed == final.main_tree_avg_quality
