"""In-memory model of a multi-writer DHT namespace.

Mirrors the storage semantics of DHTs used for decentralized tracking:
each peer may store one value per key, values from different peers
coexist under the same key, and a later put by the same peer replaces
its earlier value.  Name resolution is two-step: a textual node name is
digested to a key, and the key holds the version records peers have
registered.  The number of peers registered to a record is the
popularity signal that drives default browsing.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, NamedTuple

Key = bytes
PeerId = int


class KeyCollisionError(RuntimeError):
    """Two distinct names digested to the same key.

    At the scales this model runs at, a collision means the digest is
    being misused, so the run aborts instead of modeling it.
    """


def digest(text: str) -> Key:
    """Stable 160-bit digest used for node names and version content ids."""
    return hashlib.sha1(text.encode("utf-8")).digest()


def node_name(index: int) -> str:
    """Canonical textual name of a node in the simulated namespace."""
    return f"node-{index}"


class _ValueRecordFields(NamedTuple):
    description: str
    content_ref: Key


class ValueRecord(_ValueRecordFields):
    """One registered version: a short description plus the content digest
    identifying that version's payload, never empty."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.content_ref:
            raise ValueError("content_ref must be non-empty")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so `_replace` checks too
    _ValueRecordFields.__new__.__qualname__ = "ValueRecord.__new__"  # errors name the record


class Namespace:
    """Multi-writer key/value store with per-(peer, key) single values."""

    def __init__(self):
        self._entries: dict[Key, dict[PeerId, ValueRecord]] = {}
        self._keys_by_peer: dict[PeerId, set[Key]] = {}
        self._name_of_key: dict[Key, str] = {}

    def key_for(self, name: str) -> Key:
        """Digest a name, aborting the run if it collides with another name."""
        key = digest(name)
        known = self._name_of_key.get(key)
        if known is None:
            self._name_of_key[key] = name
        elif known != name:
            raise KeyCollisionError(
                f"names {known!r} and {name!r} share key {key.hex()}"
            )
        return key

    def put(self, peer: PeerId, key: Key, value: ValueRecord) -> None:
        """Store `value` under `key` for `peer`, replacing the peer's
        previous value there.  Other peers' values are untouched."""
        self._entries.setdefault(key, {})[peer] = value
        self._keys_by_peer.setdefault(peer, set()).add(key)

    def get(self, key: Key) -> set[ValueRecord]:
        """All values stored under `key` by any peer."""
        return set(self._entries.get(key, {}).values())

    def remove_peer(self, peer: PeerId) -> None:
        """Drop every value `peer` has stored, under every key."""
        for key in self._keys_by_peer.pop(peer, ()):
            stored = self._entries[key]
            del stored[peer]
            if not stored:
                del self._entries[key]

    def resolve(self, name: str) -> list[tuple[ValueRecord, int]]:
        """Version records registered under a node name, most popular first.

        Each record is paired with the number of distinct peers registered
        to it.  Ties keep first-registration order, so the result is
        reproducible.
        """
        counts: dict[ValueRecord, int] = {}
        for record in self._entries.get(self.key_for(name), {}).values():
            counts[record] = counts.get(record, 0) + 1
        return sorted(counts.items(), key=lambda item: -item[1])


def view(preferences: Iterable[Mapping[int, int]]) -> Namespace:
    """The namespace that viewing preferences register.

    `preferences` holds one node -> version mapping per peer, in peer-id
    order.  Each peer stores, under each node's key, the record of the
    version it views: named "node-<i> v<j>", with the digest of
    "node-<i>/v<j>" as its content reference.
    """
    namespace = Namespace()
    for peer, prefs in enumerate(preferences):
        for node, version in prefs.items():
            name = node_name(node)
            record = ValueRecord(f"{name} v{version}", digest(f"{name}/v{version}"))
            namespace.put(peer, namespace.key_for(name), record)
    return namespace
