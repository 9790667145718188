"""Directory store, quality law, and main-tree extraction."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from poptree.directory import (
    DirectoryStore,
    MainTree,
    NodeVersion,
    expected_quality_fraction,
    init_control_tree,
    main_tree,
    sample_quality,
)
from poptree.engine import SimConfig, Simulation
from poptree.peers import PeerPopulation, PopularityIndex
from support import Invariants, ObjectStore, ScriptedRandom, check_columns

S_VALUES = (0.25, 0.5, 1.0, 2.0, 4.0)


def index_with(store, counts):
    """A real popularity index over `store` holding the node -> {version:
    count} viewer counts in `counts`, each viewer a peer of its own."""
    pop = PeerPopulation(max(sum(c.values()) for c in counts.values()), store)
    for node, per_node in counts.items():
        viewed = [version for version, count in per_node.items() for _ in range(count)]
        for peer, version in enumerate(viewed):
            pop.set_preference(peer, node, version)
    return pop.index


# --- quality law -----------------------------------------------------------


def test_sample_quality_is_identity_at_s_one():
    assert sample_quality(1.0, ScriptedRandom([0.37])) == 0.37


def test_sample_quality_squares_at_s_two():
    assert sample_quality(2.0, ScriptedRandom([0.5])) == 0.25


@pytest.mark.parametrize("s", [0.0, -1.0])
def test_sample_quality_rejects_bad_shape(s):
    with pytest.raises(ValueError):
        sample_quality(s, random.Random(0))


@pytest.mark.parametrize("s", S_VALUES)
def test_sample_quality_mean_is_one_over_one_plus_s(s):
    rng = random.Random(int(s * 1000) + 7)
    draws = [sample_quality(s, rng) for _ in range(10_000)]
    assert abs(sum(draws) / len(draws) - 1 / (1 + s)) < 0.02


@pytest.mark.parametrize("s", [0.5, 1e-3, 1e-300])
def test_sample_quality_stays_below_one_when_the_power_rounds_up(s):
    # (1 - 2**-53) ** 0.5 rounds to 1.0, which the store refuses
    assert sample_quality(s, ScriptedRandom([1 - 2**-53])) == 1 - 2**-53
    assert sample_quality(s, ScriptedRandom([0.0])) == 0.0


@pytest.mark.parametrize("s", S_VALUES)
def test_sample_quality_cdf_matches_power_law(s):
    rng = random.Random(int(s * 1000) + 11)
    draws = [sample_quality(s, rng) for _ in range(10_000)]
    result = kstest(draws, lambda q: q ** (1 / s))
    assert result.pvalue > 0.01


def test_expected_quality_fraction_full_support():
    for s in S_VALUES:
        assert expected_quality_fraction(0.0, 1.0, s) == 1.0


def test_expected_quality_fraction_uniform_case():
    assert expected_quality_fraction(0.9, 1.0, 1.0) == pytest.approx(0.1)


def test_expected_quality_fraction_top_decile_s4():
    # frozen from direct evaluation of 1 - 0.9**(1/4)
    assert expected_quality_fraction(0.9, 1.0, 4.0) == pytest.approx(
        0.025996253574703254
    )


def test_expected_quality_fraction_agrees_with_sampling():
    s = 4.0
    rng = random.Random(99)
    draws = 100_000
    hits = sum(1 for _ in range(draws) if sample_quality(s, rng) >= 0.9)
    expected = expected_quality_fraction(0.9, 1.0, s)
    # binomial noise: sigma ~ sqrt(p(1-p)/n) ~ 5e-4; allow 4 sigma
    assert abs(hits / draws - expected) < 4 * 5e-4


@pytest.mark.parametrize(
    "lo,hi,s", [(-0.1, 0.5, 1.0), (0.5, 0.2, 1.0), (0.0, 1.1, 1.0), (0.0, 1.0, 0.0)]
)
def test_expected_quality_fraction_rejects_bad_ranges(lo, hi, s):
    with pytest.raises(ValueError):
        expected_quality_fraction(lo, hi, s)


# --- store -----------------------------------------------------------------


def test_init_control_tree_layout():
    store = DirectoryStore()
    init_control_tree(store)
    assert store.node_count == 4
    assert [len(store.versions_of(i)) for i in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert store.version(1, 1).children == (2, 3, 4)
    for node in (2, 3, 4):
        assert store.version(node, 1).children == ()
    versions = [v for node in (1, 2, 3, 4) for v in store.versions_of(node)]
    assert all(v.quality == 0.5 for v in versions)
    assert all(v.is_dir for v in versions)


def test_init_control_tree_requires_empty_store():
    store = DirectoryStore()
    init_control_tree(store)
    with pytest.raises(RuntimeError):
        init_control_tree(store)


def test_store_assigns_sequential_node_ids():
    store = DirectoryStore()
    first = store.add_node(True, 0.4, created_at=0)
    second = store.add_node(False, 0.2, created_at=3)
    assert (first, second) == (1, 2)
    assert store.node_count == 2
    assert store.total_versions == 2


def test_add_version_extends_one_node():
    store = DirectoryStore()
    store.add_node(True, 0.4, created_at=0)
    assert store.add_version(1, 0.8, (2,), created_at=5) == 2
    assert len(store.versions_of(1)) == 2
    assert store.version(1, 2) == NodeVersion(1, 2, 0.8, True, (2,), 5)
    assert store.total_versions == 2


def test_a_one_version_node_has_no_later_entry_until_its_second_version():
    store = DirectoryStore()
    store.add_node(True, 0.4, created_at=0)
    store.add_node(True, 0.4, created_at=0)
    assert store._later == {}
    assert store.add_version(2, 0.8, (), created_at=1) == 2
    assert list(store._later) == [2]
    assert list(store._later[2]) == [store.id_of(2, 2)] == [2]
    assert store.version_count(1) == 1 and store.version_count(2) == 2


def node_versions_alive():
    return sum(type(o) is NodeVersion for o in gc.get_objects())


def test_a_stepped_control_run_keeps_no_node_version_objects():
    # the walk and the updates read and write columns only; a record is
    # built when asked for, and none is kept.  Records other tests left
    # behind are counted first.
    gc.collect()
    alive = node_versions_alive()
    sim = Simulation(SimConfig(seed=42))
    for _ in range(3000):
        sim.step()
    assert sim.store.total_versions == 2726
    assert node_versions_alive() == alive


def test_integer_columns_hold_4_byte_items():
    # ids and creation steps stay below 2**31 (SimConfig bounds t_max), and
    # no column maps a version id back to its node
    sim = Simulation(SimConfig(seed=42))
    for _ in range(3000):
        sim.step()
    store = sim.store
    assert store._later  # some nodes have a second version
    for column in (store._created, store._first, *store._later.values()):
        assert column.itemsize == 4
    assert not hasattr(store, "_node")
    with pytest.raises(OverflowError):
        store.add_node(True, 0.5, created_at=2**31)
    Invariants(sim).check()


def test_decile_counts_equal_a_recount_after_a_churned_run():
    sim = Simulation(SimConfig(n_peers=8, p_leave=0.3, seed=21))
    for _ in range(3000):
        sim.step()
    store = sim.store
    recount = [0] * 10
    for node in range(1, store.node_count + 1):
        for v in store.versions_of(node):
            recount[int(v.quality * 10)] += 1
    assert store.versions_by_decile == recount
    assert sum(recount) == store.total_versions > 1500


def test_versions_share_their_nodes_kind():
    # a directory's later versions are directories; a file node takes no
    # links and no later version
    store = DirectoryStore()
    store.add_node(False, 0.4, created_at=0)  # a file node
    assert store.version(1, 1) == NodeVersion(1, 1, 0.4, False, (), 0)
    store.add_node(True, 0.4, created_at=0)
    store.add_version(2, 0.1, (), created_at=1)
    assert store.version(2, 2).is_dir
    for children in ((), (5,)):
        with pytest.raises(ValueError):
            store.add_version(1, 0.1, children, created_at=1)
    with pytest.raises(ValueError):
        store.add_node(False, 0.4, created_at=0, children=(1,))
    assert store.total_versions == 3 and store.node_count == 2


def test_unknown_node_lookups_raise():
    store = DirectoryStore()
    store.add_node(True, 0.4, created_at=0)
    with pytest.raises(KeyError):
        store.versions_of(2)
    with pytest.raises(KeyError):
        store.version(1, 2)
    with pytest.raises(KeyError):
        store.version(0, 1)


def test_node_version_validation():
    # the store checks each version as it appends it; a rejected version
    # leaves every column as it was
    store = DirectoryStore()
    with pytest.raises(ValueError):
        store.add_node(True, 1.0, created_at=0)  # quality must stay below 1
    with pytest.raises(ValueError):
        store.add_node(False, 0.5, created_at=0, children=(2,))
    store.add_node(True, 0.5, created_at=0)
    with pytest.raises(ValueError):
        store.add_version(1, 1.0, (), created_at=0)
    with pytest.raises(KeyError):
        store.add_version(2, 0.5, (), created_at=0)
    check_columns(store)
    assert store.total_versions == 1 and store._later == {}


# each call is (kind, node pick, quality, children pick); the picks select
# among the nodes that exist, plus one unknown id, and qualities include 1.0
store_calls = st.lists(
    st.tuples(
        st.sampled_from(["dir", "file", "version"]),
        st.integers(0, 50),
        st.sampled_from([0.0, 0.05, 0.5, 0.95, 0.999, 1.0]),
        st.integers(0, 3),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(store_calls)
def test_columnar_store_matches_the_object_store(calls):
    store, reference = DirectoryStore(), ObjectStore()
    for step, (kind, pick, quality, n_children) in enumerate(calls):
        node = pick % (store.node_count + 1) + 1  # node_count + 1 is unknown
        children = tuple(range(2, 2 + n_children))
        if kind == "version":
            args = (node, quality, children, step)
            outcomes = [call(store.add_version, args), call(reference.add_version, args)]
        else:
            args = (kind == "dir", quality, step, children)
            outcomes = [call(store.add_node, args), call(reference.add_node, args)]
        assert outcomes[0] == outcomes[1]
        assert store.node_count == reference.node_count
        assert store.total_versions == reference.total_versions
        assert store.versions_by_decile == reference.versions_by_decile
        for n in range(1, store.node_count + 1):
            assert store.versions_of(n) == reference.versions_of(n)
            for j in range(1, len(reference.versions_of(n)) + 1):
                assert store.version(n, j) == reference.version(n, j)
        check_columns(store)


def call(method, args):
    """What `method(*args)` returned, or the type of what it raised."""
    try:
        return method(*args)
    except (KeyError, ValueError) as exc:
        return type(exc)


# --- main tree -------------------------------------------------------------


def initial_setup():
    store = DirectoryStore()
    init_control_tree(store)
    index = index_with(store, {i: {1: 1} for i in (1, 2, 3, 4)})
    return store, index


def test_main_tree_of_initial_state_is_the_four_versions():
    store, index = initial_setup()
    tree = main_tree(store, index, random.Random(0))
    assert tree.size == 4
    assert sorted(tree.nodes) == [1, 2, 3, 4]
    assert all(v.version == 1 for v in tree.nodes.values())
    assert tree.mean_quality == 0.5


def test_main_tree_breaks_viewer_ties_uniformly():
    store = DirectoryStore()
    store.add_node(True, 0.3, created_at=0)
    store.add_version(1, 0.6, (), created_at=1)
    index = index_with(store, {1: {1: 3, 2: 3}})
    rng = random.Random(77)
    picks = {1: 0, 2: 0}
    trials = 1000
    for _ in range(trials):
        picks[main_tree(store, index, rng).nodes[1].version] += 1
    assert abs(picks[1] / trials - 0.5) < 0.05


def brute_force_reachable(store, index, choose):
    """Independent oracle: follow max-count versions recursively, using a
    deterministic tie choice supplied by the test."""
    reached = {}

    def visit(node):
        if node in reached:
            return
        versions = store.versions_of(node)
        counts = index.counts_for(node)
        if counts:
            best = max(counts.values())
            candidates = sorted(j for j, c in counts.items() if c == best)
        else:
            candidates = [v.version for v in versions]
        version = versions[choose(candidates) - 1]
        reached[node] = version
        for child in version.children:
            visit(child)

    visit(1)
    return reached


def test_main_tree_matches_brute_force_on_single_version_chain():
    store = DirectoryStore()
    store.add_node(True, 0.5, created_at=0, children=(2,))
    store.add_node(True, 0.5, created_at=0, children=(3,))
    store.add_node(True, 0.5, created_at=0)
    index = index_with(store, {1: {1: 1}, 2: {1: 1}, 3: {1: 1}})
    tree = main_tree(store, index, random.Random(4))
    oracle = brute_force_reachable(store, index, lambda c: c[0])
    assert tree.nodes == oracle
    assert sorted(tree.nodes) == [1, 2, 3]


def test_main_tree_is_rooted_and_bounded():
    store, index = initial_setup()
    store.add_node(False, 0.2, created_at=1)  # orphan never linked
    tree = main_tree(store, index, random.Random(9))
    assert next(iter(tree.nodes)) == 1
    assert tree.size <= store.node_count
    assert 5 not in tree.nodes


def test_main_tree_of_empty_store():
    tree = main_tree(DirectoryStore(), PopularityIndex(), random.Random(0))
    assert tree.size == 0
    assert tree.mean_quality == 0.0


def test_main_tree_mean_quality_averages_its_nodes():
    store = DirectoryStore()
    store.add_node(True, 0.3, created_at=0, children=(2, 3))
    store.add_node(True, 0.6, created_at=0)
    store.add_node(False, 0.9, created_at=0)
    store.add_node(False, 0.1, created_at=0)  # never linked
    tree = main_tree(store, PopularityIndex(), ScriptedRandom())
    assert [v.quality for v in tree.nodes.values()] == [0.3, 0.6, 0.9]
    assert tree.mean_quality == pytest.approx(0.6)


def test_main_tree_mean_quality_is_a_left_fold():
    # the same last bit on every interpreter: built-in sum() is compensated
    # from Python 3.12 on and gives 0.1 here
    tree = MainTree({node: NodeVersion(node, 1, 0.1, True, (), 0) for node in range(1, 11)})
    assert tree.mean_quality == 0.09999999999999999
