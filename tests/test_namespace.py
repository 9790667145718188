"""Namespace store semantics: multi-writer keys, resolution."""

import pytest

from poptree.namespace import (
    KeyCollisionError,
    Namespace,
    ValueRecord,
    digest,
    node_name,
)


def record(tag: str) -> ValueRecord:
    return ValueRecord(tag, digest(f"content/{tag}"))


K = digest("some-key")


def test_put_overwrites_same_peer():
    ns = Namespace()
    v1, v2 = record("v1"), record("v2")
    ns.put(7, K, v1)
    ns.put(7, K, v2)
    assert ns.get(K) == {v2}


def test_different_peers_coexist_under_one_key():
    ns = Namespace()
    v1, v2 = record("v1"), record("v2")
    ns.put(1, K, v1)
    ns.put(2, K, v2)
    assert ns.get(K) == {v1, v2}


def test_fresh_key_single_writer():
    ns = Namespace()
    v = record("only")
    ns.put(3, K, v)
    assert ns.get(K) == {v}


def test_get_unknown_key_is_empty():
    assert Namespace().get(digest("never-stored")) == set()


def test_put_idempotent_for_identical_triple():
    ns = Namespace()
    v = record("same")
    key = ns.key_for("n")
    ns.put(1, key, v)
    ns.put(1, key, v)
    assert ns.get(key) == {v}
    assert ns.resolve("n") == [(v, 1)]


def test_get_without_limit_returns_all():
    ns = Namespace()
    records = [record(f"v{i}") for i in range(5)]
    for peer, rec in enumerate(records):
        ns.put(peer, K, rec)
    assert ns.get(K) == set(records)


def test_remove_peer_drops_all_its_records():
    ns = Namespace()
    k1, k2 = digest("k1"), digest("k2")
    ns.put(1, k1, record("a1"))
    ns.put(1, k2, record("a2"))
    ns.put(2, k1, record("b1"))
    ns.remove_peer(1)
    assert ns.get(k1) == {record("b1")}
    assert ns.get(k2) == set()


def test_remove_peer_without_records_is_noop():
    ns = Namespace()
    ns.put(1, K, record("a"))
    ns.remove_peer(99)
    assert ns.get(K) == {record("a")}


def test_remove_one_of_two_writers():
    ns = Namespace()
    ns.put(1, K, record("a"))
    ns.put(2, K, record("b"))
    ns.remove_peer(1)
    assert ns.get(K) == {record("b")}


def test_resolve_orders_by_registration_count():
    ns = Namespace()
    x, y = record("X"), record("Y")
    key = ns.key_for(node_name(1))
    ns.put(10, key, x)
    ns.put(11, key, x)
    ns.put(12, key, y)
    assert ns.resolve(node_name(1)) == [(x, 2), (y, 1)]


def test_resolve_unregistered_name_is_empty():
    assert Namespace().resolve("nothing-here") == []


def test_resolve_single_registration():
    ns = Namespace()
    v = record("solo")
    ns.put(5, ns.key_for("n"), v)
    assert ns.resolve("n") == [(v, 1)]


def test_resolve_counts_sum_to_distinct_registering_peers():
    ns = Namespace()
    key = ns.key_for("shared")
    for peer in range(7):
        ns.put(peer, key, record(f"v{peer % 3}"))
    resolved = ns.resolve("shared")
    assert sum(count for _, count in resolved) == 7


def test_resolve_tie_order_is_reproducible():
    def build():
        ns = Namespace()
        key = ns.key_for("ties")
        ns.put(0, key, record("first"))
        ns.put(1, key, record("second"))
        return ns.resolve("ties")

    first, second = build(), build()
    assert first == second
    assert [r.description for r, _ in first] == ["first", "second"]


def test_key_collision_aborts(monkeypatch):
    import poptree.namespace as mod

    monkeypatch.setattr(mod, "digest", lambda text: b"\x00")
    ns = Namespace()
    ns.key_for("alpha")
    with pytest.raises(KeyCollisionError):
        ns.key_for("beta")
    # re-registering the same name is fine
    assert ns.key_for("alpha") == b"\x00"


def test_value_record_requires_content_ref():
    with pytest.raises(ValueError):
        ValueRecord("described but empty", b"")
