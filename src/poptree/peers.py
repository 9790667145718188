"""Peer population state: viewing preferences, viewer counts, churn.

A peer's viewing preference for a node doubles as its registration in
the namespace.  Only the preferences and the viewer counts derived from
them are stored; the namespace's view of "who is viewing what" is built
from the preferences when asked for, so it always agrees with the
popularity counts the simulation reads.  The population size is fixed; a
churned peer keeps its slot but restarts with a blank slate, as if
replaced by a newcomer.
"""

from __future__ import annotations

import random

from .directory import DirectoryStore, NodeVersion, pick_popular
from .namespace import Namespace, ValueRecord, digest, node_name

_EMPTY: dict[int, int] = {}


class PopularityIndex:
    """Per-(node, version) viewer counts, maintained incrementally.

    Zero counts are pruned, so proportional draws and max scans only touch
    versions that still have viewers.  When a majority count is set,
    versions whose count climbs to it are queued for the metrics layer.
    """

    def __init__(self, majority_count: int | None = None):
        self._counts: dict[int, dict[int, int]] = {}
        self._totals: dict[int, int] = {}
        self._viewed_nodes = 0
        self._majority_count = majority_count
        self._crossings: list[tuple[int, int]] = []

    def counts_for(self, node: int) -> dict[int, int]:
        """Viewer counts for `node`, versions with at least one viewer only.
        The mapping is live; callers must not mutate it."""
        return self._counts.get(node, _EMPTY)

    def count(self, node: int, version: int) -> int:
        return self._counts.get(node, _EMPTY).get(version, 0)

    def lambda_max(self, node: int) -> int:
        counts = self._counts.get(node)
        return max(counts.values()) if counts else 0

    def total(self, node: int) -> int:
        return self._totals.get(node, 0)

    @property
    def viewed_node_count(self) -> int:
        return self._viewed_nodes

    def increment(self, node: int, version: int) -> None:
        counts = self._counts.setdefault(node, {})
        c = counts.get(version, 0) + 1
        counts[version] = c
        total = self._totals.get(node, 0) + 1
        self._totals[node] = total
        if total == 1:
            self._viewed_nodes += 1
        if c == self._majority_count:
            self._crossings.append((node, version))

    def decrement(self, node: int, version: int) -> None:
        counts = self._counts[node]
        c = counts[version] - 1
        if c:
            counts[version] = c
        else:
            del counts[version]
            if not counts:
                del self._counts[node]
        total = self._totals[node] - 1
        self._totals[node] = total
        if total == 0:
            self._viewed_nodes -= 1

    def drain_crossings(self) -> list[tuple[int, int]]:
        """Versions that reached the majority count since the last drain."""
        if not self._crossings:
            return []
        crossed = self._crossings
        self._crossings = []
        return crossed

    def iter_counts(self):
        for node, counts in self._counts.items():
            for version, c in counts.items():
                yield node, version, c


class PeerPopulation:
    """Fixed population of peers with per-node viewing preferences."""

    def __init__(
        self,
        n_peers: int,
        store: DirectoryStore,
        majority_count: int | None = None,
        namespace_rng: random.Random | None = None,
    ):
        if n_peers < 1:
            raise ValueError("population needs at least one peer")
        self.n_peers = n_peers
        self.store = store
        self.index = PopularityIndex(majority_count)
        self._prefs: list[dict[int, int]] = [{} for _ in range(n_peers)]
        self._generation = [0] * n_peers
        self._namespace_rng = namespace_rng

    @property
    def namespace(self) -> Namespace:
        """The namespace as the current preferences register it: one record
        per (node, version) viewed, stored under the node's key by every
        peer viewing it, peers in id order.

        The view is built on each access and is not updated afterwards.
        Its limited `get`/`resolve` calls sample with `namespace_rng`, or
        with an unseeded RNG when none was given.
        """
        view = Namespace(self._namespace_rng)
        for peer, prefs in enumerate(self._prefs):
            for node, version in prefs.items():
                name = node_name(node)
                record = ValueRecord(f"{name} v{version}", digest(f"{name}/v{version}"))
                view.put(peer, view.key_for(name), record)
        return view

    def preference(self, peer: int, node: int) -> int | None:
        return self._prefs[peer].get(node)

    def preferences_of(self, peer: int) -> dict[int, int]:
        """Live node -> version mapping for `peer`; callers must not mutate."""
        return self._prefs[peer]

    def generation(self, peer: int) -> int:
        return self._generation[peer]

    def set_preference(self, peer: int, node: int, version: int) -> None:
        """Point `peer` at (node, version), moving its viewer count."""
        prefs = self._prefs[peer]
        old = prefs.get(node)
        if old == version:
            return
        prefs[node] = version
        index = self.index
        index.increment(node, version)
        if old is not None:
            index.decrement(node, old)

    def viewing(self, node: int, peer: int, rng: random.Random) -> NodeVersion:
        """The version of `node` that `peer` views.

        An existing preference is returned as-is.  Otherwise the default
        applies: a uniform pick among the most viewed versions, which then
        becomes the peer's preference.
        """
        versions = self.store.versions_of(node)
        j = self._prefs[peer].get(node)
        if j is not None:
            return versions[j - 1]
        chosen = pick_popular(versions, self.index.counts_for(node), rng)
        self.set_preference(peer, node, chosen.version)
        return chosen

    def select(self, node: int, peer: int, rng: random.Random) -> NodeVersion:
        """Re-pick a version of `node` with probability proportional to its
        viewer count; the pick becomes the peer's preference.

        With no viewers anywhere on the node the ratio is undefined, so the
        pick falls back to uniform over all versions.
        """
        versions = self.store.versions_of(node)
        counts = self.index.counts_for(node)
        if counts:
            r = rng.randrange(self.index.total(node))
            for j, c in counts.items():
                r -= c
                if r < 0:
                    break
        elif len(versions) == 1:
            j = 1
        else:
            j = rng.randrange(len(versions)) + 1
        self.set_preference(peer, node, j)
        return versions[j - 1]

    def churn_reset(self, peer: int) -> None:
        """Replace `peer` with a fresh one: every preference (and so every
        namespace registration) is dropped and each affected viewer count
        decremented."""
        prefs = self._prefs[peer]
        index = self.index
        for node, version in prefs.items():
            index.decrement(node, version)
        prefs.clear()
        self._generation[peer] += 1

    def lambda_max(self, node: int) -> int:
        self.store.versions_of(node)  # unknown node is a state error here too
        return self.index.lambda_max(node)
