"""Tests of the Chord-like DHT ring."""

import random
from collections import OrderedDict

import numpy as np
import pytest

from repro import obs
from repro.p2p import ChordRing, chord, document_guid, peer_guid
from repro.p2p.guid import ID_SPACE


@pytest.fixture(scope="module")
def ring():
    return ChordRing(list(range(32)))


class TestOwnership:
    def test_owner_is_successor(self, ring):
        # Brute-force the successor and compare.
        guids = sorted((peer_guid(p), p) for p in ring.peers)
        for key in (0, 12345, 2**100, document_guid(7)):
            expected = next((p for g, p in guids if g >= key), guids[0][1])
            assert ring.owner(key) == expected

    def test_owner_of_peer_guid_is_peer(self, ring):
        for p in ring.peers[:5]:
            assert ring.owner(peer_guid(p)) == p

    def test_all_keys_covered(self, ring):
        rng = np.random.default_rng(0)
        for _ in range(50):
            key = int(rng.integers(0, 2**63))
            assert ring.owner(key) in ring.peers


class TestRouting:
    def test_route_agrees_with_owner(self, ring):
        rng = np.random.default_rng(1)
        for _ in range(100):
            key = int(rng.integers(0, 2**63)) << 64
            start = int(rng.choice(ring.peers))
            result = ring.route(key, start)
            assert result.owner == ring.owner(key)

    def test_hops_logarithmic(self, ring):
        rng = np.random.default_rng(2)
        hops = [
            ring.route(document_guid(i), int(rng.choice(ring.peers))).hops
            for i in range(200)
        ]
        # Chord guarantee: O(log P); with 32 peers allow some slack.
        assert max(hops) <= 2 * int(np.ceil(np.log2(32)))
        assert np.mean(hops) <= np.log2(32)

    def test_route_from_owner_is_free_or_one(self, ring):
        key = document_guid(99)
        owner = ring.owner(key)
        result = ring.route(key, owner)
        assert result.owner == owner
        assert result.hops <= 1  # may hop once around a tiny arc

    def test_path_starts_at_start_and_ends_at_owner(self, ring):
        key = document_guid(5)
        result = ring.route(key, ring.peers[0])
        assert result.path[0] == ring.peers[0]
        assert result.path[-1] == result.owner
        assert result.hops == len(result.path) - 1

    def test_lookup_hops_shortcut(self, ring):
        hops = ring.document_hops(np.array([ring.peers[3]]), np.array([17]))
        assert hops.tolist() == [ring.route(document_guid(17), ring.peers[3]).hops]

    def test_unknown_start_rejected(self, ring):
        with pytest.raises(KeyError):
            ring.route(0, 999)


class TestMembership:
    def test_join_and_leave_roundtrip(self):
        ring = ChordRing(list(range(8)))
        keys = [document_guid(i) for i in range(40)]
        before = [ring.owner(k) for k in keys]
        ring.join(100)
        assert 100 in ring
        ring.leave(100)
        after = [ring.owner(k) for k in keys]
        assert before == after

    def test_join_takes_over_keys(self):
        ring = ChordRing(list(range(8)))
        ring.join(100)
        fresh = ChordRing(list(range(8)) + [100])
        for i in range(60):
            k = document_guid(i)
            assert ring.owner(k) == fresh.owner(k)

    def test_leave_hands_keys_to_successor(self):
        ring = ChordRing(list(range(8)))
        ring.leave(3)
        fresh = ChordRing([p for p in range(8) if p != 3])
        for i in range(60):
            k = document_guid(i)
            assert ring.owner(k) == fresh.owner(k)

    def test_duplicate_join_rejected(self):
        ring = ChordRing([1, 2])
        with pytest.raises(ValueError):
            ring.join(1)

    def test_leave_unknown_rejected(self):
        ring = ChordRing([1, 2])
        with pytest.raises(KeyError):
            ring.leave(9)

    def test_cannot_empty_ring(self):
        ring = ChordRing([1])
        with pytest.raises(ValueError):
            ring.leave(1)

    def test_empty_construction_rejected(self):
        with pytest.raises(ValueError):
            ChordRing([])

    def test_single_peer_owns_everything(self):
        ring = ChordRing([42])
        assert ring.owner(document_guid(0)) == 42
        assert ring.route(document_guid(0), 42).hops == 0

    def test_peers_listed_in_ring_order(self, ring):
        guids = [peer_guid(p) for p in ring.peers]
        assert guids == sorted(guids)

    def test_routing_correct_after_churn_sequence(self):
        ring = ChordRing(list(range(16)))
        rng = np.random.default_rng(3)
        ring.leave(4)
        ring.join(50)
        ring.leave(9)
        ring.join(51)
        for i in range(50):
            key = document_guid(i)
            start = int(rng.choice(ring.peers))
            assert ring.route(key, start).owner == ring.owner(key)


class TestFaultTolerance:
    def test_successor_list(self, ring):
        peers_in_order = ring.peers
        first = peers_in_order[0]
        succ = ring.successor_list(first, 3)
        assert succ == peers_in_order[1:4]

    def test_successor_list_wraps(self, ring):
        last = ring.peers[-1]
        succ = ring.successor_list(last, 2)
        assert succ[0] == ring.peers[0]

    def test_successor_list_validation(self, ring):
        with pytest.raises(KeyError):
            ring.successor_list(999, 1)
        with pytest.raises(ValueError):
            ring.successor_list(ring.peers[0], 0)

    def test_owner_excluding_skips_dead(self, ring):
        key = document_guid(5)
        owner = ring.owner(key)
        rehomed = ring.owner_excluding(key, {owner})
        assert rehomed != owner
        # re-homed owner is the first live successor
        assert rehomed == ring.successor_list(owner, 1)[0]

    def test_owner_excluding_no_dead_is_owner(self, ring):
        key = document_guid(6)
        assert ring.owner_excluding(key, set()) == ring.owner(key)

    def test_owner_excluding_all_dead(self, ring):
        with pytest.raises(ValueError, match="all peers"):
            ring.owner_excluding(0, set(ring.peers))

    def test_owner_excluding_chain(self, ring):
        key = document_guid(7)
        owner = ring.owner(key)
        chain = ring.successor_list(owner, 3)
        dead = {owner, chain[0], chain[1]}
        assert ring.owner_excluding(key, dead) == chain[2]


def keys_owned_by(ring, rng, position, count):
    """The GUID of the peer at ``position`` and ``count`` random keys
    from the rest of the arc it owns, (its predecessor's GUID, its
    GUID]."""
    guids = [peer_guid(p) for p in ring.peers]
    pred, own = guids[position - 1], guids[position]
    arc = (own - pred) % ID_SPACE or ID_SPACE
    return [own] + [(pred + rng.randrange(1, arc)) % ID_SPACE for _ in range(count)]


def assert_table_matches_routes(ring, seed, keys_per_owner=2):
    """Every (start, owner) entry of the hop table equals the hops of
    ``_route`` from that start for random keys the owner stores."""
    rng = random.Random(seed)
    table = ring.hop_table()
    peers = ring.peers
    assert table.shape == (len(peers), len(peers))
    for j in range(len(peers)):
        for key in keys_owned_by(ring, rng, j, keys_per_owner):
            assert ring.owner(key) == peers[j]
            got = [ring._route(key, start).hops for start in peers]
            assert table[:, j].tolist() == got


class TestHopTable:
    """``hop_table`` prices greedy routes by (start, owner) ring
    position; ``document_hops`` reads it for document keys."""

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 20, 100])
    def test_every_pair_matches_route(self, size):
        ring = ChordRing(list(range(size)))
        assert_table_matches_routes(ring, seed=size, keys_per_owner=3 if size < 100 else 1)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 20, 100])
    def test_document_hops_match_route(self, size):
        ring = ChordRing(list(range(size)))
        rng = np.random.default_rng(size + 1)
        starts = rng.integers(0, size, size=3000)
        docs = rng.integers(0, 10**6, size=3000)
        got = ring.document_hops(starts, docs).tolist()
        want = [
            ring._route(document_guid(d), s).hops
            for s, d in zip(starts.tolist(), docs.tolist())
        ]
        assert got == want

    def test_join_and_leave_rebuild_the_table(self):
        ring = ChordRing(list(range(20)))
        docs = np.arange(400)
        before = ring.hop_table()
        ring.document_positions(docs)
        for change in (lambda: ring.join(77), lambda: ring.leave(4),
                       lambda: ring.join(5000), lambda: ring.leave(0)):
            change()
            assert_table_matches_routes(ring, seed=len(ring.peers))
            fresh = ChordRing(ring.peers)
            assert ring.hop_table() is not before
            assert np.array_equal(ring.hop_table(), fresh.hop_table())
            assert np.array_equal(
                ring.document_positions(docs), fresh.document_positions(docs)
            )
            before = ring.hop_table()

    def test_positions_follow_ring_order(self):
        ring = ChordRing([9, 40, 3, 17])
        assert ring.positions(ring.peers).tolist() == [0, 1, 2, 3]
        assert [ring.peers[i] for i in ring.positions([17, 3])] == [17, 3]
        with pytest.raises(KeyError, match="peer 8"):
            ring.positions([3, 8])

    def test_document_positions_name_the_owner(self, ring):
        docs = np.array([5, 0, 5, 123, 77])
        owners = [ring.peers[i] for i in ring.document_positions(docs)]
        assert owners == [ring.owner(document_guid(d)) for d in docs.tolist()]

    def test_rings_over_the_same_peers_hash_each_document_once(self, monkeypatch):
        monkeypatch.setattr(chord, "_DOC_POSITIONS", OrderedDict())
        docs = np.arange(300)
        first = ChordRing(list(range(12))).document_positions(docs)
        hashed = []

        def counted(doc):
            hashed.append(doc)
            return document_guid(doc)

        monkeypatch.setattr(chord, "document_guid", counted)
        second = ChordRing(list(range(12)))
        assert np.array_equal(second.document_positions(docs), first)
        assert hashed == []
        # Another membership looks its owners up itself.
        ChordRing(list(range(13))).document_positions(docs[:5])
        assert hashed == list(range(5))

    def test_shared_positions_keep_a_few_memberships(self, monkeypatch):
        monkeypatch.setattr(chord, "_DOC_POSITIONS", OrderedDict())
        for size in range(2, 2 + 2 * chord._DOC_POSITION_MEMBERSHIPS):
            ChordRing(list(range(size))).document_positions(np.arange(10))
        assert len(chord._DOC_POSITIONS) == chord._DOC_POSITION_MEMBERSHIPS

    def test_lookups_recorded_like_route(self, ring):
        starts = np.array([0, 3, 3, 31])
        docs = np.array([8, 8, 900, 2])
        with obs.use_registry() as batched:
            ring.document_hops(starts, docs)
        with obs.use_registry() as single:
            for s, d in zip(starts.tolist(), docs.tolist()):
                ring.route(document_guid(d), s)
        assert batched.snapshot() == single.snapshot()
