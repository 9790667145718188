"""Versioned store of the simulated directory tree.

Node `i` has versions `1..n_i`, each with a quality, a kind and child
links, kept in the store's columns; a `NodeVersion` is an immutable
record of one version, built when asked for.  Child links reference node
ids, not versions: a version names which nodes it indexes, and every
viewer resolves each child to a version by popularity on their own.
File nodes are leaves: they never carry links and keep their one version.

Also houses the quality law applied when versions are created, and the
extraction of the "main tree" that a preference-free newcomer would end
up browsing.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from typing import Iterator, NamedTuple


def sample_quality(s: float, rng: random.Random) -> float:
    """Draw a quality in [0, 1): a uniform variate mapped through p**s.

    Larger s makes high quality rarer; the mean over many draws is
    1 / (1 + s) and the CDF is q**(1/s).  For s <= 0.5 a draw near 1 can
    round up to exactly 1.0, and smaller s rounds more draws up; such a
    draw gives the largest float below 1 instead.
    """
    if s <= 0:
        raise ValueError("quality shape s must be > 0")
    q = rng.random() ** s
    return q if q < 1.0 else math.nextafter(1.0, 0.0)


def expected_quality_fraction(lo: float, hi: float, s: float) -> float:
    """Expected fraction of created versions with quality in (lo, hi]."""
    if s <= 0:
        raise ValueError("quality shape s must be > 0")
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("need 0 <= lo <= hi <= 1")
    inv = 1.0 / s
    return hi**inv - lo**inv


class NodeVersion(NamedTuple):
    """Immutable record of one published version of a node, built by the
    store on demand; the store's columns are the only stored state."""

    node: int
    version: int
    quality: float
    is_dir: bool
    children: tuple[int, ...]
    created_at: int


class DirectoryStore:
    """Append-only store of nodes and their versions; node ids start at 1
    and node 1 is the root.

    No object is kept per version.  Each version gets an id `g` in creation
    order, and columns indexed by `g` hold its quality (`array('d')`),
    creation step (`array('i')`) and child tuple (None for a file).
    `_first[node]` is the id of the node's version 1, and `_later[node]`
    the ids of its versions 2, 3, ..., for the nodes that have them (both
    `array('i')`).  No column maps an id back to its node: callers reach a
    version through its node.  `version` and `versions_of` build
    NodeVersion records when asked.

    Ids and steps are 4-byte ints, so an append past 2**31 - 1 raises
    OverflowError; `SimConfig` bounds `t_max` below that, and 2**31
    versions would take hundreds of GB.
    """

    def __init__(self):
        self._quality = array("d")
        self._created = array("i")
        self._children: list[tuple[int, ...] | None] = []
        self._first = array("i", (0,))  # slot 0 is unused
        self._later: dict[int, array] = {}

    @property
    def node_count(self) -> int:
        return len(self._first) - 1

    @property
    def total_versions(self) -> int:
        return len(self._quality)

    @property
    def versions_by_decile(self) -> list[int]:
        """Versions created with quality in [b/10, (b+1)/10), for b = 0..9.
        A quality is below 1, and quality * 10 then rounds to below 10."""
        counts = [0] * 10
        for q in self._quality:
            counts[int(q * 10)] += 1
        return counts

    def version_count(self, node: int) -> int:
        """How many versions `node` has."""
        if not 1 <= node < len(self._first):
            raise KeyError(f"unknown node {node}")
        later = self._later.get(node)
        return 1 if later is None else len(later) + 1

    def id_of(self, node: int, version: int) -> int:
        """The id of version `version` of `node`."""
        if not 1 <= node < len(self._first):
            raise KeyError(f"unknown node {node}")
        if version == 1:
            return self._first[node]
        later = self._later.get(node, ())
        if not 2 <= version <= len(later) + 1:
            raise KeyError(f"node {node} has no version {version}")
        return later[version - 2]

    def version(self, node: int, version: int) -> NodeVersion:
        g = self.id_of(node, version)
        children = self._children[g]
        return NodeVersion(
            node, version, self._quality[g], children is not None, children or (), self._created[g]
        )

    def versions_of(self, node: int) -> tuple[NodeVersion, ...]:
        """All versions of `node`, oldest first."""
        return tuple(self.version(node, j) for j in range(1, self.version_count(node) + 1))

    def _append(self, quality: float, children, created_at: int) -> int:
        """Store one version in every column and return its id; a rejected
        version leaves every column unchanged."""
        if not 0.0 <= quality < 1.0:
            raise ValueError("quality must be in [0, 1)")
        self._created.append(created_at)  # the append that rejects a bad step
        self._quality.append(quality)
        self._children.append(children)
        return len(self._children) - 1

    def add_node(self, is_dir: bool, quality: float, created_at: int, children=()) -> int:
        """Create the next node id with its first version; return the id."""
        children = tuple(children)
        if not is_dir:
            if children:
                raise ValueError("file versions cannot carry child links")
            children = None
        node = len(self._first)
        self._first.append(self._append(quality, children, created_at))
        return node

    def add_version(self, node: int, quality: float, children, created_at: int) -> int:
        """Publish a further version of an existing directory node; return
        its version number."""
        if not 1 <= node < len(self._first):
            raise KeyError(f"unknown node {node}")
        if self._children[self._first[node]] is None:
            raise ValueError("a file node takes no further version")
        g = self._append(quality, tuple(children), created_at)
        later = self._later.get(node)
        if later is None:
            self._later[node] = array("i", (g,))
            return 2
        later.append(g)
        return len(later) + 1


def init_control_tree(store: DirectoryStore) -> None:
    """Build the four-directory starting tree: root node 1 indexing leaf
    directories 2, 3 and 4, every version at quality 0.5."""
    if store.node_count != 0:
        raise RuntimeError("the starting tree must be built in an empty store")
    store.add_node(is_dir=True, quality=0.5, created_at=0, children=(2, 3, 4))
    for _ in range(3):
        store.add_node(is_dir=True, quality=0.5, created_at=0)


class MainTree(NamedTuple):
    """The tree a newcomer with no preferences would browse: one version
    per reached node, chosen by popularity with random tie-breaks."""

    nodes: dict[int, NodeVersion]  # insertion order is breadth-first from the root

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def mean_quality(self) -> float:
        if not self.nodes:
            return 0.0
        # a left fold: built-in sum() of floats is compensated from Python
        # 3.12 on, and would change the last bit on some interpreters only
        total = 0.0
        for v in self.nodes.values():
            total += v.quality
        return total / len(self.nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        for node, version in self.nodes.items():
            for child in version.children:
                yield node, child


def main_tree(store: DirectoryStore, index, rng: random.Random) -> MainTree:
    """Extract the main tree by walking from the root and keeping, per
    node, the most viewed version (ties broken uniformly at random).

    `index` is the run's `PopularityIndex`; each node's pick is
    `index.popular`.
    """
    if store.node_count == 0:
        return MainTree({})
    nodes: dict[int, NodeVersion] = {}
    queue = deque((1,))
    while queue:
        node = queue.popleft()
        if node in nodes:  # defensive; the node structure is a tree
            continue
        chosen = store.version(node, index.popular(node, store.version_count(node), rng))
        nodes[node] = chosen
        queue.extend(chosen.children)
    return MainTree(nodes)
