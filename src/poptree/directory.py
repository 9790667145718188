"""Versioned store of the simulated directory tree.

Node `i` has versions `1..n_i`, each an immutable record of quality, kind
and child links.  Child links reference node ids, not versions: a version
names which nodes it indexes, and every viewer resolves each child to a
version by popularity on their own.  File nodes are leaves and never
carry links.

Also houses the quality law applied when versions are created, and the
extraction of the "main tree" that a preference-free newcomer would end
up browsing.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, Mapping, Sequence


def sample_quality(s: float, rng: random.Random) -> float:
    """Draw a quality in [0, 1): a uniform variate mapped through p**s.

    Larger s makes high quality rarer; the mean over many draws is
    1 / (1 + s) and the CDF is q**(1/s).
    """
    if s <= 0:
        raise ValueError("quality shape s must be > 0")
    return rng.random() ** s


def expected_quality_fraction(lo: float, hi: float, s: float) -> float:
    """Expected fraction of created versions with quality in (lo, hi]."""
    if s <= 0:
        raise ValueError("quality shape s must be > 0")
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("need 0 <= lo <= hi <= 1")
    inv = 1.0 / s
    return hi**inv - lo**inv


class NodeVersion:
    """Immutable snapshot of one published version of a node."""

    __slots__ = ("node", "version", "quality", "is_dir", "children", "created_at")

    def __init__(self, node, version, quality, is_dir, children, created_at):
        if not 0.0 <= quality < 1.0:
            raise ValueError("quality must be in [0, 1)")
        children = tuple(children)
        if not is_dir and children:
            raise ValueError("file versions cannot carry child links")
        self.node = node
        self.version = version
        self.quality = quality
        self.is_dir = is_dir
        self.children = children
        self.created_at = created_at

    def __eq__(self, other):
        if not isinstance(other, NodeVersion):
            return NotImplemented
        return (
            self.node == other.node
            and self.version == other.version
            and self.quality == other.quality
            and self.is_dir == other.is_dir
            and self.children == other.children
            and self.created_at == other.created_at
        )

    def __hash__(self):
        return hash((self.node, self.version))

    def __repr__(self):
        kind = "dir" if self.is_dir else "file"
        return (
            f"NodeVersion({self.node}.{self.version} {kind} "
            f"q={self.quality:.3f} children={self.children})"
        )


class DirectoryStore:
    """Append-only store of nodes and their versions; node ids start at 1
    and node 1 is the root."""

    def __init__(self):
        # a node's versions: a 1-tuple until its second version, then an
        # exact-size list that grows by append; slot 0 is unused
        self._versions: list[Sequence[NodeVersion]] = [()]
        self._numbers = [0, 1]  # version n of every node is the int _numbers[n]
        self._by_decile = [0] * 10  # versions created per quality decile

    @property
    def node_count(self) -> int:
        return len(self._versions) - 1

    @property
    def total_versions(self) -> int:
        return sum(self._by_decile)

    @property
    def versions_by_decile(self) -> list[int]:
        """Versions created with quality in [b/10, (b+1)/10), for b = 0..9."""
        return list(self._by_decile)

    def versions_of(self, node: int) -> Sequence[NodeVersion]:
        """All versions of `node`, oldest first, as a read-only sequence.
        A later `add_version` may replace it instead of extending it, so
        hold on to the node id, not the sequence."""
        if not 1 <= node < len(self._versions):
            raise KeyError(f"unknown node {node}")
        return self._versions[node]

    def version(self, node: int, version: int) -> NodeVersion:
        versions = self.versions_of(node)
        if not 1 <= version <= len(versions):
            raise KeyError(f"node {node} has no version {version}")
        return versions[version - 1]

    def add_node(
        self, is_dir: bool, quality: float, created_at: int, children=()
    ) -> NodeVersion:
        """Create the next node id with its first version."""
        node = len(self._versions)
        first = NodeVersion(node, 1, quality, is_dir, children, created_at)
        self._versions.append((first,))
        self._by_decile[int(quality * 10)] += 1
        return first

    def add_version(
        self, node: int, quality: float, children, created_at: int
    ) -> NodeVersion:
        """Publish a further version of an existing node (same kind)."""
        nodes = self._versions
        if not 1 <= node < len(nodes):
            raise KeyError(f"unknown node {node}")
        versions = nodes[node]
        n = len(versions) + 1
        numbers = self._numbers
        if n == len(numbers):  # the first node to reach n versions
            numbers.append(n)
        fresh = NodeVersion(
            node, numbers[n], quality, versions[0].is_dir, children, created_at
        )
        if n == 2:
            nodes[node] = [versions[0], fresh]
        else:
            versions.append(fresh)
        self._by_decile[int(quality * 10)] += 1
        return fresh


def init_control_tree(store: DirectoryStore) -> None:
    """Build the four-directory starting tree: root node 1 indexing leaf
    directories 2, 3 and 4, every version at quality 0.5."""
    if store.node_count != 0:
        raise RuntimeError("the starting tree must be built in an empty store")
    store.add_node(is_dir=True, quality=0.5, created_at=0, children=(2, 3, 4))
    for _ in range(3):
        store.add_node(is_dir=True, quality=0.5, created_at=0)


def pick_popular(
    versions: Sequence[NodeVersion], counts: Mapping[int, int], rng: random.Random
) -> NodeVersion:
    """Uniform choice among the versions with the highest viewer count.

    With no viewers at all, every version ties at zero and the choice is
    uniform over all of them.  A single candidate is taken without
    consuming a random draw.
    """
    if counts:
        top = max(counts.values())
        ties = [j for j, c in counts.items() if c == top]
        j = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
        return versions[j - 1]
    if len(versions) == 1:
        return versions[0]
    return versions[rng.randrange(len(versions))]


class MainTree:
    """The tree a newcomer with no preferences would browse: one version
    per reached node, chosen by popularity with random tie-breaks."""

    def __init__(self, nodes: dict[int, NodeVersion]):
        self.nodes = nodes  # insertion order is breadth-first from the root

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def mean_quality(self) -> float:
        if not self.nodes:
            return 0.0
        return sum(v.quality for v in self.nodes.values()) / len(self.nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        for node, version in self.nodes.items():
            for child in version.children:
                yield node, child

    def __eq__(self, other):
        if not isinstance(other, MainTree):
            return NotImplemented
        return self.nodes == other.nodes

    def __repr__(self):
        return f"MainTree(size={self.size}, mean_quality={self.mean_quality:.3f})"


def main_tree(store: DirectoryStore, index, rng: random.Random) -> MainTree:
    """Extract the main tree by walking from the root and keeping, per
    node, the most viewed version (ties broken uniformly at random).

    `index` is the run's `PopularityIndex`; each node's pick is
    `index.popular`, the pick of `pick_popular` over the node's counts.
    """
    if store.node_count == 0:
        return MainTree({})
    nodes: dict[int, NodeVersion] = {}
    queue = deque((1,))
    while queue:
        node = queue.popleft()
        if node in nodes:  # defensive; the node structure is a tree
            continue
        chosen = index.popular(node, store.versions_of(node), rng)
        nodes[node] = chosen
        queue.extend(chosen.children)
    return MainTree(nodes)
