"""Peer preferences, popularity counts, and churn."""

import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poptree.directory import DirectoryStore
from poptree.namespace import node_name
from poptree.peers import PeerPopulation, PopularityIndex
from support import (
    DenseIndex,
    ScriptedRandom,
    assert_sparse_rule,
    namespace_of,
    pick_popular,
    recount_preferences,
)


def build_population(n_peers=10, versions=1, majority_count=None):
    """A population over a store holding node 1 with `versions` versions."""
    store = DirectoryStore()
    store.add_node(True, 0.5, created_at=0)
    for _ in range(versions - 1):
        store.add_version(1, 0.5, (), created_at=0)
    pop = PeerPopulation(n_peers, store, majority_count)
    return store, pop


def seed_counts(pop, node, version_counts):
    """Give `node` the viewer counts in `version_counts`, using peers 0..n."""
    peer = 0
    for version, count in version_counts.items():
        for _ in range(count):
            pop.set_preference(peer, node, version)
            peer += 1
    return peer  # first free peer


def test_viewing_returns_existing_preference_without_changes():
    _, pop = build_population(versions=3)
    pop.set_preference(0, 1, 2)
    before = dict(pop.index.counts_for(1))
    v = pop.viewing(1, 0, ScriptedRandom())  # no draws allowed
    assert v.version == 2
    assert dict(pop.index.counts_for(1)) == before


def test_viewing_default_is_uniform_over_most_popular():
    _, pop = build_population(n_peers=10, versions=3)
    free = seed_counts(pop, 1, {1: 3, 2: 3, 3: 1})
    rng = random.Random(13)
    picks = {1: 0, 2: 0, 3: 0}
    trials = 1000
    for _ in range(trials):
        picks[pop.viewing(1, free, rng).version] += 1
        pop.churn_reset(free)  # restore counts for the next trial
    assert picks[3] == 0
    assert abs(picks[1] / trials - 0.5) < 0.05


def test_viewing_single_version_registers_one_viewer():
    _, pop = build_population(versions=1)
    assert pop.index.counts_for(1) == {}
    v = pop.viewing(1, 4, ScriptedRandom())
    assert v.version == 1
    assert pop.index.counts_for(1) == {1: 1}
    assert pop.preference(4, 1) == 1


def test_viewing_all_zero_counts_ties_every_version():
    _, pop = build_population(versions=4)
    rng = random.Random(5)
    seen = set()
    for peer in range(8):
        seen.add(pop.viewing(1, peer, rng).version)
        pop.churn_reset(peer)
    assert seen <= {1, 2, 3, 4} and len(seen) > 1


def test_viewing_unknown_node_raises():
    _, pop = build_population()
    with pytest.raises(KeyError):
        pop.viewing(99, 0, random.Random(0))


def test_select_is_proportional_to_viewer_counts():
    _, pop = build_population(n_peers=10, versions=2)
    free = seed_counts(pop, 1, {1: 3, 2: 1})
    rng = random.Random(23)
    hits = 0
    trials = 1000
    for _ in range(trials):
        if pop.select(1, free, rng).version == 1:
            hits += 1
        pop.churn_reset(free)
    assert abs(hits / trials - 0.75) < 0.04


def test_select_with_no_viewers_is_uniform():
    _, pop = build_population(n_peers=20, versions=2)
    rng = random.Random(31)
    hits = 0
    trials = 1000
    for _ in range(trials):
        if pop.select(1, 0, rng).version == 1:
            hits += 1
        pop.churn_reset(0)
    assert abs(hits / trials - 0.5) < 0.05


def test_select_single_viewed_version_is_certain():
    _, pop = build_population(n_peers=10, versions=1)
    seed_counts(pop, 1, {1: 5})
    for _ in range(20):
        assert pop.select(1, 9, ScriptedRandom(randranges=[0])).version == 1
        pop.churn_reset(9)


def test_select_sets_the_preference():
    _, pop = build_population(versions=2)
    pop.set_preference(0, 1, 1)
    chosen = pop.select(1, 0, random.Random(2))
    assert pop.preference(0, 1) == chosen.version


def test_select_may_return_the_currently_viewed_version():
    _, pop = build_population(versions=2)
    pop.set_preference(0, 1, 1)  # sole viewer: proportional draw must return v1
    assert pop.select(1, 0, random.Random(0)).version == 1


def test_churn_reset_clears_preferences_and_counts():
    store, pop = build_population(n_peers=5)
    for node in range(2, 6):
        store.add_node(True, 0.5, created_at=0)
    for node in range(1, 6):
        pop.set_preference(3, node, 1)
    assert len(pop.preferences_of(3)) == 5
    pop.churn_reset(3)
    assert pop.preferences_of(3) == {}
    for node in range(1, 6):
        assert pop.index.counts_for(node) == {}
    assert pop.index.viewed_node_count == 0


def test_churn_reset_of_fresh_peer_leaves_the_index_unchanged():
    _, pop = build_population()
    pop.set_preference(0, 1, 1)
    before = copy.deepcopy(index_state(pop.index))
    pop.churn_reset(2)
    assert pop.preferences_of(2) == {}
    assert index_state(pop.index) == before


def test_churn_reset_decrements_shared_version():
    _, pop = build_population()
    pop.set_preference(0, 1, 1)
    pop.set_preference(1, 1, 1)
    assert pop.index.counts_for(1) == {1: 2}
    pop.churn_reset(0)
    assert pop.index.counts_for(1) == {1: 1}


def test_churn_reset_removes_namespace_registrations():
    _, pop = build_population()
    pop.set_preference(0, 1, 1)
    pop.set_preference(1, 1, 1)
    assert namespace_of(pop).resolve(node_name(1))[0][1] == 2
    pop.churn_reset(0)
    resolved = namespace_of(pop).resolve(node_name(1))
    assert len(resolved) == 1 and resolved[0][1] == 1
    pop.churn_reset(1)
    assert namespace_of(pop).resolve(node_name(1)) == []


def test_population_needs_at_least_one_peer():
    store = DirectoryStore()
    with pytest.raises(ValueError):
        PeerPopulation(0, store)


# --- randomized operation sequences ----------------------------------------


def stored_total(index, node):
    """The viewer total the index stores for `node`: 0 until its node-indexed
    lists have grown to cover the node."""
    totals = index._totals
    return totals[node] if node < len(totals) else 0


def assert_consistent(pop, store):
    recomputed = recount_preferences(pop)
    indexed = {
        node: dict(pop.index.counts_for(node))
        for node in range(1, store.node_count + 1)
        if pop.index.counts_for(node)
    }
    assert indexed == recomputed
    for node, per_node in recomputed.items():
        assert sum(per_node.values()) <= pop.n_peers
        assert stored_total(pop.index, node) == sum(per_node.values())
    assert pop.index.viewed_node_count == len(recomputed)
    for node in range(1, store.node_count + 1):
        assert_sparse_rule(pop.index, node)
    # the namespace mirrors the preferences exactly
    namespace = namespace_of(pop)
    for node in range(1, store.node_count + 1):
        expected = {
            f"{node_name(node)} v{version}": count
            for version, count in recomputed.get(node, {}).items()
        }
        resolved = {
            record.description: count
            for record, count in namespace.resolve(node_name(node))
        }
        assert resolved == expected


def test_index_stays_consistent_through_random_operations():
    rng = random.Random(20240518)
    store = DirectoryStore()
    store.add_node(True, 0.5, created_at=0)
    pop = PeerPopulation(8, store)
    for step in range(4000):
        roll = rng.random()
        node = rng.randrange(store.node_count) + 1
        peer = rng.randrange(8)
        if roll < 0.40:
            pop.viewing(node, peer, rng)
        elif roll < 0.70:
            pop.select(node, peer, rng)
        elif roll < 0.80:
            pop.churn_reset(peer)
        elif roll < 0.92:
            quality = rng.random()
            if store.version(node, 1).is_dir:  # a file node keeps its one version
                store.add_version(node, quality, (), created_at=step)
        else:
            store.add_node(rng.random() < 0.5, rng.random(), created_at=step)
        if step % 400 == 0:
            assert_consistent(pop, store)
    assert_consistent(pop, store)


def test_namespace_view_equals_recounted_preferences_after_set_and_churn():
    rng = random.Random(97)
    store = DirectoryStore()
    for _ in range(6):
        store.add_node(True, 0.5, created_at=0)
        for _ in range(3):
            store.add_version(store.node_count, 0.5, (), created_at=0)
    pop = PeerPopulation(12, store)
    for step in range(3000):
        peer = rng.randrange(12)
        if rng.random() < 0.1:
            pop.churn_reset(peer)
        else:
            pop.set_preference(peer, rng.randrange(6) + 1, rng.randrange(4) + 1)
        if step % 300 == 0:
            namespace = namespace_of(pop)
            recounted = recount_preferences(pop)
            for node in range(1, 7):
                resolved = {
                    record.description: count
                    for record, count in namespace.resolve(node_name(node))
                }
                assert resolved == {
                    f"{node_name(node)} v{version}": count
                    for version, count in recounted.get(node, {}).items()
                }


def test_namespace_view_is_a_snapshot():
    _, pop = build_population()
    pop.set_preference(0, 1, 1)
    view = namespace_of(pop)
    pop.churn_reset(0)
    assert view.resolve(node_name(1))[0][1] == 1
    assert namespace_of(pop).resolve(node_name(1)) == []


# --- the leader kept by the popularity index --------------------------------


def leader_of(pop, node):
    """The version the index holds as the unique top of `node`, 0 if none."""
    return pop.index._leader[node]


def default_pick(pop, node, rng):
    return pop.index.popular(node, pop.store.version_count(node), rng)


def test_leader_decremented_into_a_tie_with_the_runner_up():
    _, pop = build_population(versions=2)
    seed_counts(pop, 1, {1: 3, 2: 2})  # peers 0-2 view v1, peers 3-4 view v2
    assert leader_of(pop, 1) == 1
    pop.churn_reset(0)
    assert leader_of(pop, 1) == 0
    assert default_pick(pop, 1, ScriptedRandom(randranges=[1])) == 2
    assert default_pick(pop, 1, ScriptedRandom(randranges=[0])) == 1
    assert leader_of(pop, 1) == 0  # still a tie after the scan
    pop.set_preference(0, 1, 1)  # 3 : 2 again, above the bound the scan left
    assert leader_of(pop, 1) == 1


def test_tie_found_by_a_scan_tightens_the_bound():
    _, pop = build_population(versions=2)
    seed_counts(pop, 1, {1: 3, 2: 3})  # peers 0-2 view v1, peers 3-5 view v2
    pop.churn_reset(0)
    pop.churn_reset(3)  # 2 : 2 under a bound of 3
    assert default_pick(pop, 1, ScriptedRandom(randranges=[0])) == 1
    pop.set_preference(0, 1, 2)  # 2 : 3
    assert leader_of(pop, 1) == 2


def test_leader_decremented_but_still_ahead_is_kept():
    _, pop = build_population(versions=3)
    seed_counts(pop, 1, {1: 4, 2: 2, 3: 1})
    pop.churn_reset(0)
    assert leader_of(pop, 1) == 1
    assert default_pick(pop, 1, ScriptedRandom()) == 1  # no draw


def test_one_of_two_tied_tops_loses_a_viewer():
    _, pop = build_population(versions=3)
    seed_counts(pop, 1, {1: 2, 2: 2, 3: 1})  # peers 2-3 view v2
    assert leader_of(pop, 1) == 0
    pop.churn_reset(3)
    # the bound still allows a tie, so the pick scans, finds v1 alone on
    # top without a draw, and records it
    assert default_pick(pop, 1, ScriptedRandom()) == 1
    assert leader_of(pop, 1) == 1
    assert pop.viewing(1, 9, ScriptedRandom()).version == 1
    assert pop.index.counts_for(1)[1] == 3
    pop.churn_reset(9)
    pop.churn_reset(0)  # 1 : 1 : 1, the runner-ups at the recorded bound
    assert leader_of(pop, 1) == 0
    assert default_pick(pop, 1, ScriptedRandom(randranges=[2])) == 3


def test_non_leader_overtakes_the_leader():
    _, pop = build_population(versions=2)
    free = seed_counts(pop, 1, {1: 3, 2: 2})
    pop.set_preference(free, 1, 2)  # 3 : 3
    assert leader_of(pop, 1) == 0
    pop.set_preference(free + 1, 1, 2)  # 3 : 4
    assert leader_of(pop, 1) == 2
    assert default_pick(pop, 1, ScriptedRandom()) == 2
    pop.set_preference(0, 1, 2)  # a viewer moves over: 2 : 5
    assert leader_of(pop, 1) == 2
    assert pop.viewing(1, free + 2, ScriptedRandom()).version == 2


def test_last_viewer_leaves_and_the_node_is_viewed_again():
    _, pop = build_population(versions=3)
    seed_counts(pop, 1, {2: 2, 3: 1})  # peers 0-1 view v2, peer 2 views v3
    assert leader_of(pop, 1) == 2
    for peer in range(3):
        pop.churn_reset(peer)
    assert leader_of(pop, 1) == 0
    assert pop.index._totals[1] == 0
    # no viewers: every version ties at zero and the pick is uniform
    assert pop.viewing(1, 1, ScriptedRandom(randranges=[2])).version == 3
    assert leader_of(pop, 1) == 3
    assert pop.viewing(1, 2, ScriptedRandom()).version == 3
    assert pop.index.counts_for(1) == {3: 2}


# --- moving a viewer between versions ------------------------------------------


def index_state(index):
    """Everything the index keeps, with each node's counts in dict order."""
    return (
        [(node, list(counts.items())) for node, counts in index._counts.items()],
        index._totals,
        index._leader,
        index._bound,
        index._viewed_nodes,
        index._crossings,
    )


def twin_indexes(version_counts, majority_count=None):
    """A sparse index and its dense reference with the same viewer counts on
    node 1, each version holding at least one viewer."""
    twins = PopularityIndex(majority_count), DenseIndex(majority_count)
    for index in twins:
        for version, count in version_counts.items():
            for _ in range(count):
                index.increment(1, version)
    return twins


def move_both(moved, twin, old, new):
    """One viewer of node 1 moves from `old` to `new` on the sparse index and
    on its dense twin, as an increment of `new`, then a decrement of `old`:
    the two must end in the same state."""
    for index in (moved, twin):
        index.increment(1, new)
        index.decrement(1, old)
    assert index_state(moved) == index_state(twin)


def test_move_takes_the_leader_into_a_tie_with_the_runner_up():
    moved, twin = twin_indexes({1: 3, 2: 2, 3: 1})
    assert moved._leader[1] == 1
    move_both(moved, twin, 1, 3)  # 2 : 2 : 2
    assert moved._leader[1] == 0
    assert moved._totals[1] == 6


def test_move_lets_a_non_leader_overtake_the_leader():
    moved, twin = twin_indexes({1: 3, 2: 2})
    move_both(moved, twin, 1, 2)  # 2 : 3
    assert moved.counts_for(1) == {1: 2, 2: 3}
    move_both(moved, twin, 1, 2)  # 1 : 4, above the bound the tie left
    assert moved._leader[1] == 2
    store = DirectoryStore()
    store.add_node(True, 0.5, created_at=0)
    store.add_version(1, 0.5, (), created_at=0)
    assert moved.popular(1, store.version_count(1), ScriptedRandom()) == 2


def test_move_empties_a_version_and_adds_it_back_at_the_end():
    moved, twin = twin_indexes({1: 1, 2: 2})
    move_both(moved, twin, 1, 2)
    assert list(moved.counts_for(1).items()) == [(2, 3)]
    move_both(moved, twin, 2, 1)
    assert list(moved.counts_for(1).items()) == [(2, 2), (1, 1)]
    assert moved._leader[1] == 2


def test_move_to_the_majority_count_queues_one_crossing():
    moved, twin = twin_indexes({1: 2, 2: 1}, majority_count=3)
    assert moved.drain_crossings() == twin.drain_crossings() == []
    move_both(moved, twin, 2, 1)  # 3 : 0
    move_both(moved, twin, 1, 2)  # 2 : 1, back below the line
    assert moved.drain_crossings() == [(1, 1)]


def test_set_preference_moves_an_existing_viewer():
    _, pop = build_population(versions=2)
    seed_counts(pop, 1, {1: 2})
    pop.set_preference(0, 1, 2)
    assert pop.index.counts_for(1) == {1: 1, 2: 1}
    assert pop.index._totals[1] == 2
    assert pop.preference(0, 1) == 2


# the bookkeeping is per node; one node with few peers and versions makes
# ties, overtakes and emptied nodes frequent
N_PEERS, N_NODES, N_VERSIONS = 4, 1, 3
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(0, N_PEERS - 1),
            st.integers(1, N_NODES),
            st.integers(1, N_VERSIONS),
        ),
        st.tuples(st.just("churn"), st.integers(0, N_PEERS - 1)),
        st.tuples(
            st.just("view"),
            st.integers(0, N_PEERS - 1),
            st.integers(1, N_NODES),
            st.integers(0, 2**32),
        ),
    ),
    max_size=60,
)


def assert_default_pick_matches_reference(pop, seed):
    recounted = recount_preferences(pop)
    for node in range(1, N_NODES + 1):
        n_versions = pop.store.version_count(node)
        fast_rng, reference_rng = random.Random(seed), random.Random(seed)
        fast = pop.index.popular(node, n_versions, fast_rng)
        reference = pick_popular(n_versions, pop.index.counts_for(node), reference_rng)
        assert fast == reference
        assert fast_rng.getstate() == reference_rng.getstate()
        assert stored_total(pop.index, node) == sum(recounted.get(node, {}).values())


@settings(max_examples=200, deadline=None)
@given(operations)
def test_default_pick_matches_the_reference_scan(ops):
    store = DirectoryStore()
    for _ in range(N_NODES):
        store.add_node(True, 0.5, created_at=0)
        for _ in range(N_VERSIONS - 1):
            store.add_version(store.node_count, 0.5, (), created_at=0)
    # the same operations on two populations: `probed` has its default pick
    # checked after every operation, which refreshes its leaders; `unprobed`
    # keeps whatever state the operations alone leave, and must agree on
    # every view
    probed, unprobed = PeerPopulation(N_PEERS, store), PeerPopulation(N_PEERS, store)
    for step, op in enumerate(ops):
        if op[0] == "set":
            probed.set_preference(*op[1:])
            unprobed.set_preference(*op[1:])
        elif op[0] == "churn":
            probed.churn_reset(op[1])
            unprobed.churn_reset(op[1])
        else:
            _, peer, node, seed = op
            seen = probed.viewing(node, peer, random.Random(seed))
            assert unprobed.viewing(node, peer, random.Random(seed)) == seen
        assert_default_pick_matches_reference(probed, step)
    assert_default_pick_matches_reference(unprobed, len(ops))


# --- the sparse index against the dense reference ------------------------------

# node 1500 lies beyond the index lists' first chunk, so it makes them grow
SPARSE_NODES = (1, 1500)
set_op = st.tuples(
    st.just("set"),
    st.integers(0, N_PEERS - 1),
    st.sampled_from(SPARSE_NODES),
    st.integers(1, N_VERSIONS),
)
# sets weigh three times as much as the other operations, so nodes often
# hold several viewers before one of them moves
index_operations = st.lists(
    st.one_of(
        set_op,
        set_op,
        set_op,
        st.tuples(st.just("leave"), st.integers(0, N_PEERS - 1), st.sampled_from(SPARSE_NODES)),
        st.tuples(st.just("churn"), st.integers(0, N_PEERS - 1)),
        st.tuples(st.just("view"), st.sampled_from(SPARSE_NODES), st.integers(0, 2**32)),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(index_operations)
# a node's dict is made by a second version's first viewer, also when a
# viewer moves away from the one viewed version; the dense dict's order must
# hold in both
@example([("set", 0, 1, 1), ("set", 1, 1, 1), ("set", 2, 1, 2), ("view", 1, 0)])
@example([("set", 0, 1, 1), ("set", 1, 1, 1), ("set", 0, 1, 2), ("leave", 1, 1)])
def test_sparse_index_matches_the_dense_reference(ops):
    # increments, moves (an increment, then a decrement), decrements and churn
    # driven straight into both
    # indexes; after every operation they must agree in every count, in dict
    # order, and in their leaders, bounds, totals and queued crossings
    sparse, dense = PopularityIndex(majority_count=3), DenseIndex(majority_count=3)
    prefs = [{} for _ in range(N_PEERS)]
    two_viewed = set()  # nodes with two viewed versions since they were last empty

    def leave(peer, node):
        version = prefs[peer].pop(node)
        sparse.decrement(node, version)
        dense.decrement(node, version)
        if not any(node in p for p in prefs):
            two_viewed.discard(node)

    for op in ops:
        if op[0] == "set":
            _, peer, node, version = op
            old = prefs[peer].get(node)
            if old == version:
                continue
            if {p[node] for p in prefs if node in p} - {version}:
                two_viewed.add(node)
            prefs[peer][node] = version
            for index in (sparse, dense):
                index.increment(node, version)
                if old is not None:
                    index.decrement(node, old)
        elif op[0] == "leave":
            if op[2] in prefs[op[1]]:
                leave(op[1], op[2])
        elif op[0] == "churn":
            for node in list(prefs[op[1]]):
                leave(op[1], node)
        else:
            _, node, seed = op
            sparse_rng, dense_rng = random.Random(seed), random.Random(seed)
            picked = sparse.popular(node, N_VERSIONS, sparse_rng)
            assert picked == dense.popular(node, N_VERSIONS, dense_rng)
            assert sparse_rng.getstate() == dense_rng.getstate()
        for node in SPARSE_NODES:
            assert list(sparse.counts_for(node).items()) == list(dense.counts_for(node).items())
            assert_sparse_rule(sparse, node)
        assert sparse._leader == dense._leader
        assert sparse._bound == dense._bound
        assert sparse._totals == dense._totals
        assert sparse._crossings == dense._crossings
        assert sparse.viewed_node_count == dense._viewed_nodes
        assert set(sparse._counts) == two_viewed
