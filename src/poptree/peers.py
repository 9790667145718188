"""Peer population state: viewing preferences, viewer counts, churn.

A peer's viewing preference for a node doubles as its registration in
the namespace.  Only the preferences and the viewer counts derived from
them are stored; `poptree.namespace.view` builds the namespace those
preferences register, so it always agrees with the popularity counts the
simulation reads.  The population size is fixed; a churned peer keeps its
slot but restarts with a blank slate, as if replaced by a newcomer.
"""

from __future__ import annotations

import random

from .directory import DirectoryStore, NodeVersion

_GROW_CHUNK = 1024  # node slots the index lists gain at a time


class PopularityIndex:
    """Per-(node, version) viewer counts, maintained incrementally.

    The index is sparse: a node whose viewers all view one version keeps no
    counts dict; that version is its leader, its count the node's total, its
    bound 0.  A second version's first viewer makes the dict `{leader:
    total, new: 1}`, the one a dense index holds then, in its order.  It
    lives until the node has no viewers, never folded back, so every draw
    sees the dense counts in the dense order.  Zero counts are pruned, so
    draws and max scans only touch versions that still have viewers.  When
    a majority count is set, a version is queued for the metrics layer the
    first time its count climbs to it, and never again, so the queue holds
    each version at most once even when nobody drains it.

    Each node also tracks its leader, the version that alone holds the top
    count, so that the default view needs no scan.  Two lists indexed by
    node id hold it: `_leader`, the leading version or 0 when unknown or
    tied, and `_bound`, an upper bound on every count of the node other
    than the leader's (on every count while there is no leader).  A known
    leader's own count is read from the counts, or is the node's total.

    `increment` and `decrement` keep them in O(1).  A version whose count
    climbs above the bound becomes the leader.  A decrement of the leader
    keeps it as long as its new count still beats the bound; a plain cached
    maximum would be lost on almost every step, since the leader is the
    version most often left.  When the leader is unknown, `popular` scans
    the counts, and records a unique top if it finds one.  A viewer moves
    between two versions of a node as `increment` of the new one, then
    `decrement` of the old, in that order: the node never empties in
    between, so it keeps its counts dict and that dict's order.

    The node-indexed lists grow in chunks ahead of the store, so a new
    node's first count rarely needs them extended.
    """

    def __init__(self, majority_count: int | None = None):
        self._counts: dict[int, dict[int, int]] = {}
        self._totals: list[int] = []
        self._leader: list[int] = []
        self._bound: list[int] = []
        self._viewed_nodes = 0
        self._majority_count = majority_count
        self._crossings: list[tuple[int, int]] = []
        self._crossed: set[tuple[int, int]] = set()  # every version ever queued

    def counts_for(self, node: int) -> dict[int, int]:
        """Viewer counts for `node`, versions with at least one viewer only.
        A node's dict is returned live, and callers must not mutate it; a
        node without one gets a fresh `{leader: total}`."""
        counts = self._counts.get(node)
        if counts is not None:
            return counts
        total = self._totals[node] if node < len(self._totals) else 0
        return {self._leader[node]: total} if total else {}

    @property
    def viewed_node_count(self) -> int:
        return self._viewed_nodes

    def popular(self, node: int, n_versions: int, rng: random.Random) -> int:
        """The version of `node` a newcomer views, out of its `n_versions`:
        a uniform pick among the versions with the most viewers.  With no
        viewers, every version ties at zero and the pick is uniform over
        all of them.  A single candidate takes no draw.

        A known leader is returned without a scan.  Otherwise the counts
        are scanned, and a unique top becomes the leader.
        """
        leaders = self._leader
        leader = leaders[node] if node < len(leaders) else 0
        if leader:
            return leader
        counts = self._counts.get(node)
        if not counts:  # a viewed node has a leader or a counts dict
            return 1 if n_versions == 1 else rng.randrange(n_versions) + 1
        top = max(counts.values())
        ties = [j for j, c in counts.items() if c == top]
        if len(ties) > 1:
            self._bound[node] = top
            return ties[rng.randrange(len(ties))]
        leader = leaders[node] = ties[0]
        self._bound[node] = max([c for c in counts.values() if c != top], default=0)
        return leader

    def _grow(self, node: int) -> None:
        extra = [0] * (node + _GROW_CHUNK - len(self._totals))
        self._totals.extend(extra)
        self._leader.extend(extra)
        self._bound.extend(extra)

    def increment(self, node: int, version: int) -> None:
        totals = self._totals
        try:
            total = totals[node] + 1
        except IndexError:  # a node beyond the last chunk
            self._grow(node)
            total = 1
        totals[node] = total
        leaders = self._leader
        leader = leaders[node]
        if total == 1:  # the first viewer: its version leads, with no dict
            self._viewed_nodes += 1
            leaders[node] = version
            c = 1
        else:
            counts = self._counts.get(node)
            if counts is not None:
                c = counts.get(version, 0) + 1
                counts[version] = c
            elif leader == version:
                c = total
            else:  # a second viewed version
                counts = self._counts[node] = {leader: total - 1, version: 1}
                c = 1
            if leader != version and c > self._bound[node]:
                if not leader:  # above every count: the unique top
                    leaders[node] = version
                else:
                    self._bound[node] = c
                    if c == counts[leader]:  # tied with the leader
                        leaders[node] = 0
        if c == self._majority_count:
            key = (node, version)
            if key not in self._crossed:
                self._crossed.add(key)
                self._crossings.append(key)

    def decrement(self, node: int, version: int) -> None:
        total = self._totals[node] - 1
        self._totals[node] = total
        counts = self._counts.get(node)
        if counts is None:  # `version` is the leader and holds every viewer
            c = total
        else:
            c = counts[version] - 1
            if c:
                counts[version] = c
            elif total:
                del counts[version]
            else:
                del self._counts[node]
        if total == 0:
            self._viewed_nodes -= 1
            self._leader[node] = self._bound[node] = 0
        elif self._leader[node] == version and c <= self._bound[node]:
            self._leader[node] = 0  # the bound now covers every count

    def drain_crossings(self) -> list[tuple[int, int]]:
        """Versions that first reached the majority count since the last
        drain."""
        if not self._crossings:
            return []
        crossed = self._crossings
        self._crossings = []
        return crossed


class PeerPopulation:
    """Fixed population of peers with per-node viewing preferences."""

    def __init__(self, n_peers: int, store: DirectoryStore):
        if n_peers < 1:
            raise ValueError("population needs at least one peer")
        self.n_peers = n_peers
        self.store = store
        # a version holds a majority once strictly more than half the peers view it
        self.index = PopularityIndex(n_peers // 2 + 1)
        self._prefs: list[dict[int, int]] = [{} for _ in range(n_peers)]

    def preference(self, peer: int, node: int) -> int | None:
        return self.preferences_of(peer).get(node)

    def preferences_of(self, peer: int) -> dict[int, int]:
        """Live node -> version mapping for `peer`; callers must not mutate."""
        if not 0 <= peer < self.n_peers:  # a negative index would be another peer
            raise IndexError(f"peer {peer} not in range(n_peers={self.n_peers})")
        return self._prefs[peer]

    def set_preference(self, peer: int, node: int, version: int) -> None:
        """Point `peer` at (node, version), moving its viewer count."""
        prefs = self.preferences_of(peer)
        self.store.id_of(node, version)  # an unknown version is refused before any write
        old = prefs.get(node)
        if old == version:
            return
        prefs[node] = version
        self.index.increment(node, version)
        if old is not None:
            self.index.decrement(node, old)

    def viewing(self, node: int, peer: int, rng: random.Random) -> NodeVersion:
        """The version of `node` that `peer` views.

        An existing preference is returned as-is.  Otherwise the default
        applies: a uniform pick among the most viewed versions, which then
        becomes the peer's preference.

        This is the single-node API.  `walker` inlines the same pick, and
        the tests hold it to a walk built on this method.
        """
        j = self.preferences_of(peer).get(node)
        if j is None:
            j = self.index.popular(node, self.store.version_count(node), rng)
            self.set_preference(peer, node, j)
        return self.store.version(node, j)

    def select(self, node: int, peer: int, rng: random.Random) -> NodeVersion:
        """Re-pick a version of `node` with probability proportional to its
        viewer count; the pick becomes the peer's preference.

        With no viewers anywhere on the node the ratio is undefined, so the
        pick falls back to uniform over all versions.

        This is the single-node API.  `walker` inlines the same re-pick,
        and the tests hold it to a walk built on this method.
        """
        self.preferences_of(peer)  # an unknown peer takes no draw
        n_versions = self.store.version_count(node)
        index = self.index
        counts = index.counts_for(node)
        # _randbelow(n) is randrange(n) for an int n >= 1, with the same draw
        if counts:
            r = rng._randbelow(index._totals[node])
            for j, c in counts.items():
                r -= c
                if r < 0:
                    break
        elif n_versions == 1:
            j = 1
        else:
            j = rng._randbelow(n_versions) + 1
        self.set_preference(peer, node, j)
        return self.store.version(node, j)

    def walker(self, rng: random.Random):
        """The walk with `rng` bound: `walk(peer)` walks from the root to a
        leaf as `peer` and returns the directory nodes occupied, the root
        included, and the sum of the out-degrees of the versions finally
        occupied there.  No node appears twice, and the peer's preference at
        each path node is the version it occupied.  At each node the peer
        views as `viewing` does, takes the quality test with one
        `rng.random()` draw and, on failure, re-picks as `select` does, with
        the same draws and index writes; it then moves to a uniformly picked
        child.

        The RNG's methods, the store's columns and the index's lists and
        methods are bound once.  Each is only changed in place, so the walk
        reads their live state; it holds them and the preferences list,
        but not this population.  Its integer draws inline the body of
        `Random._randbelow`: for an int n >= 1, `getrandbits(n.bit_length())`
        until the value is below n is the draw `randrange(n)` makes.
        """
        random_draw = rng.random
        getrandbits = rng.getrandbits
        # the store's columns, read directly
        store = self.store
        quality = store._quality
        children_of = store._children
        first = store._first
        later = store._later
        prefs_of = self._prefs
        index = self.index
        counts_of = index._counts
        # the index's node-indexed lists grow in place, so these stay live
        totals = index._totals
        leaders = index._leader
        popular = index.popular
        increment = index.increment
        decrement = index.decrement

        def walk(peer: int) -> tuple[list[int], int]:
            prefs = prefs_of[peer]
            path = []
            append = path.append
            degree = 0
            node = 1
            while True:
                j = prefs.get(node)
                if j is None:  # the default view, which becomes the preference
                    j = leaders[node] if node < len(leaders) else 0
                    if not j:  # no known leader: scan, as popular does
                        more = later.get(node)
                        j = popular(node, 1 if more is None else len(more) + 1, rng)
                    prefs[node] = j
                    increment(node, j)
                g = first[node] if j == 1 else later[node][j - 2]
                if random_draw() >= quality[g]:  # the quality test also applies to files
                    # the peer's own view keeps the node's counts non-empty, so
                    # select's uniform fallback cannot arise here
                    n = totals[node]
                    bits = n.bit_length()
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    counts = counts_of.get(node)
                    if counts is not None:  # without a dict, `j` holds every viewer
                        for k, c in counts.items():
                            r -= c
                            if r < 0:
                                break
                        if k != j:
                            prefs[node] = k
                            increment(node, k)
                            decrement(node, j)
                            g = first[node] if k == 1 else later[node][k - 2]
                children = children_of[g]
                if children is None:  # a file
                    break
                n = len(children)
                append(node)
                degree += n
                if n > 1:
                    bits = n.bit_length()
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    node = children[r]
                elif n:
                    node = children[0]
                else:
                    break
            return path, degree

        return walk

    def churn_reset(self, peer: int) -> None:
        """Replace `peer` with a fresh one: every preference (and so every
        namespace registration) is dropped and each affected viewer count
        decremented."""
        try:  # one comparison per churn: a negative peer fails as n_peers does
            prefs = self._prefs[peer if peer >= 0 else self.n_peers]
        except IndexError:
            raise IndexError(f"peer {peer} not in range(n_peers={self.n_peers})") from None
        decrement = self.index.decrement
        for node, version in prefs.items():
            decrement(node, version)
        prefs.clear()
