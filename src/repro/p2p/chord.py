"""Chord-like distributed hash table (Stoica et al., paper ref. [22]).

The paper assumes a DHT layer that can (a) map any document GUID to
the peer responsible for it and (b) route a message there in O(log P)
hops.  This module provides exactly that, in process: a consistent-
hashing ring with per-peer finger tables and the standard
closest-preceding-finger greedy routing.

The implementation favours clarity and faithful hop counts over raw
lookup speed — the vectorized pagerank engines never call into it per
edge.  The protocol simulator's §3.2 pricing reads its hop counts in
columns from the hop table, which is exact because a greedy route's
length depends only on its start peer and the key's owner.

Supported operations:

* :meth:`ChordRing.owner` — O(log P) successor lookup (who stores a
  key), the ground truth the routing must agree with;
* :meth:`ChordRing.route` — greedy finger routing from an arbitrary
  start peer, returning the owner *and* the hop count;
* :meth:`ChordRing.document_hops` — the same hop counts for a column of
  (start peer, document) rows, read from a P×P table by (start, owner)
  ring position (:meth:`ChordRing.hop_table`);
* :meth:`ChordRing.join` / :meth:`ChordRing.leave` — membership
  changes with finger-table refresh, used by the churn protocol tests.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_registry
from repro.p2p.guid import ID_BITS, ID_SPACE, document_guid, in_interval, peer_guid

__all__ = ["ChordRing", "LookupResult"]

#: Ring positions of document owners, shared by every ring over the same
#: peers: one array (-1: not looked up yet) per membership, keyed by the
#: sorted peer GUIDs, for the most recently used few memberships.
_DOC_POSITIONS: "OrderedDict[Tuple[int, ...], np.ndarray]" = OrderedDict()
_DOC_POSITION_MEMBERSHIPS = 4


@dataclass(frozen=True)
class LookupResult:
    """Result of a routed DHT lookup.

    Attributes
    ----------
    owner:
        Peer id responsible for the key (its successor on the ring).
    hops:
        Number of routing hops taken (0 when the start peer already
        owns the key).
    path:
        The sequence of peer ids visited, starting at the start peer
        and ending at the owner.
    """

    owner: int
    hops: int
    path: Tuple[int, ...]


class ChordRing:
    """A Chord identifier ring over a set of peers.

    Parameters
    ----------
    peer_ids:
        Application-level peer identifiers (any hashable ints); each is
        hashed onto the ring with :func:`~repro.p2p.guid.peer_guid`.

    Notes
    -----
    Peer GUIDs are assumed distinct (SHA-1 collisions on realistic peer
    counts are ignored, as in every Chord deployment); a collision
    raises ``ValueError`` at construction.
    """

    def __init__(self, peer_ids: List[int]) -> None:
        if not peer_ids:
            raise ValueError("a ring needs at least one peer")
        self._guid_of: Dict[int, int] = {}
        self._peer_at: Dict[int, int] = {}
        for pid in peer_ids:
            g = peer_guid(pid)
            if g in self._peer_at:
                raise ValueError(f"peer GUID collision for peer {pid}")
            self._guid_of[int(pid)] = g
            self._peer_at[g] = int(pid)
        self._ring: List[int] = sorted(self._peer_at)  # sorted peer GUIDs
        self._fingers: Dict[int, List[int]] = {}
        self._rebuild_fingers()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def peers(self) -> List[int]:
        """Current peer ids, in ring (GUID) order."""
        return [self._peer_at[g] for g in self._ring]

    @property
    def num_peers(self) -> int:
        return len(self._ring)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._guid_of

    def join(self, peer_id: int) -> None:
        """Add a peer and refresh finger tables.

        A real Chord node fixes fingers lazily; for simulation accuracy
        we refresh eagerly so hop counts immediately reflect the new
        membership.
        """
        if peer_id in self._guid_of:
            raise ValueError(f"peer {peer_id} already in ring")
        g = peer_guid(peer_id)
        if g in self._peer_at:
            raise ValueError(f"peer GUID collision for peer {peer_id}")
        self._guid_of[int(peer_id)] = g
        self._peer_at[g] = int(peer_id)
        bisect.insort(self._ring, g)
        self._rebuild_fingers()
        get_registry().counter(
            "p2p.chord.joins", unit="peers",
            description="peers that joined the ring",
        ).inc()

    def leave(self, peer_id: int) -> None:
        """Remove a peer and refresh finger tables."""
        g = self._guid_of.pop(peer_id, None)
        if g is None:
            raise KeyError(f"peer {peer_id} not in ring")
        del self._peer_at[g]
        self._ring.remove(g)
        if not self._ring:
            raise ValueError("cannot remove the last peer from the ring")
        self._rebuild_fingers()
        get_registry().counter(
            "p2p.chord.leaves", unit="peers",
            description="peers that left the ring",
        ).inc()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def owner(self, key: int) -> int:
        """Peer id of the key's successor (who stores the key)."""
        g = self._successor_guid(key % ID_SPACE)
        return self._peer_at[g]

    def route(self, key: int, start_peer: int) -> LookupResult:
        """Greedy finger-table routing from ``start_peer`` to the key's
        owner, counting hops.

        This is Chord's ``find_successor``: forward to the closest
        finger preceding the key until the key falls between the
        current peer and its immediate successor.
        """
        result = self._route(key, start_peer)
        _record_lookups((result.hops,))
        return result

    def _route(self, key: int, start_peer: int) -> LookupResult:
        if start_peer not in self._guid_of:
            raise KeyError(f"start peer {start_peer} not in ring")
        key %= ID_SPACE
        current = self._guid_of[start_peer]
        path = [start_peer]
        hops = 0
        # log-bounded loop; the +2 slack covers the final successor hop.
        for _ in range(ID_BITS + 2):
            # Am I the owner?  True iff the key lies in
            # (predecessor, me] — the check every Chord node makes
            # before forwarding.
            pred = self._predecessor_guid(current)
            if in_interval(key, pred, current, inclusive_right=True):
                return LookupResult(self._peer_at[current], hops, tuple(path))
            succ = self._successor_guid_after(current)
            if in_interval(key, current, succ, inclusive_right=True):
                owner_guid = succ if succ != current else current
                if owner_guid != current:
                    hops += 1
                    path.append(self._peer_at[owner_guid])
                return LookupResult(self._peer_at[owner_guid], hops, tuple(path))
            nxt = self._closest_preceding(current, key)
            if nxt == current:
                nxt = succ
            current = nxt
            hops += 1
            path.append(self._peer_at[current])
        raise RuntimeError("routing failed to converge (ring corrupt?)")  # pragma: no cover

    def document_hops(self, start_peers: np.ndarray, docs: np.ndarray) -> np.ndarray:
        """Hops of :meth:`route` from ``start_peers[i]`` to the owner of
        document ``docs[i]``, for every row at once, read from
        :meth:`hop_table`; recorded as routed lookups as :meth:`route`
        records them, in row order."""
        hops = self.hop_table()[self.positions(start_peers), self.document_positions(docs)]
        _record_lookups(hops)
        return hops

    def hop_table(self) -> np.ndarray:
        """``table[i, j]``: hops of a greedy route that starts at the
        peer at ring position ``i`` for any key the peer at position
        ``j`` owns.  Built on first use, and again after a membership
        change.

        The table is exact because no peer GUID lies strictly between
        the owner's predecessor and the owner.  For every key in that arc
        each step of :meth:`route` — "do I own it?", "does my successor
        own it?" and "which finger precedes it most closely?" — answers
        as it would for the owner's own GUID.  So a step from position
        ``c`` depends only on the owner's distance ``d`` ahead of ``c``:
        arrive at ``d = 0``, else forward to the farthest finger less than
        ``d`` positions ahead (the successor, 1 ahead, always qualifies).
        The table has P² entries of two bytes each.
        """
        if self._hops is None:
            self._hops = self._build_hops()
        return self._hops

    def positions(self, peer_ids: Sequence[int]) -> np.ndarray:
        """Ring positions of ``peer_ids`` (indices into :attr:`peers`)."""
        peer_ids = np.asarray(peer_ids, dtype=np.int64)
        ids, at = self._positions
        i = np.searchsorted(ids, peer_ids)
        unknown = ids[i] != peer_ids
        if unknown.any():
            raise KeyError(f"peer {peer_ids[unknown][0]} not in ring")
        return at[i]

    def document_positions(self, docs: Sequence[int]) -> np.ndarray:
        """Ring positions of the owners of documents ``docs`` (ids from
        0).  Each document's GUID is hashed and looked up once per
        membership, and the answers are shared by every ring with that
        membership (the few most recently used are kept)."""
        docs = np.asarray(docs, dtype=np.int64)
        key = tuple(self._ring)
        memo = _DOC_POSITIONS.pop(key, np.empty(0, dtype=np.int64))
        if docs.size and docs.max() >= memo.size:
            grown = np.full(int(docs.max()) + 1, -1, dtype=np.int64)
            grown[: memo.size] = memo
            memo = grown
        _DOC_POSITIONS[key] = memo
        while len(_DOC_POSITIONS) > _DOC_POSITION_MEMBERSHIPS:
            _DOC_POSITIONS.popitem(last=False)
        at = memo[docs]
        if (at < 0).any():
            new = np.unique(docs[at < 0])
            n = len(self._ring)
            memo[new] = [
                bisect.bisect_left(self._ring, document_guid(d)) % n
                for d in new.tolist()
            ]
            at = memo[docs]
        return at

    def successor_list(self, peer_id: int, k: int) -> List[int]:
        """The ``k`` peers following ``peer_id`` on the ring.

        Chord's fault-tolerance primitive: if a peer fails, its keys
        re-home to the first live successor.  Used by
        :meth:`owner_excluding`.
        """
        if peer_id not in self._guid_of:
            raise KeyError(f"peer {peer_id} not in ring")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        g = self._guid_of[peer_id]
        i = self._ring.index(g)
        n = len(self._ring)
        return [
            self._peer_at[self._ring[(i + j) % n]]
            for j in range(1, min(k, n - 1) + 1)
        ]

    def owner_excluding(self, key: int, dead) -> int:
        """The key's owner when some peers are unreachable.

        Walks the successor chain past ``dead`` peers — the §3.1
        re-homing rule a deployment needs when a peer is absent
        long-term (stored documents move to the next live successor).

        Raises ``ValueError`` if every peer is dead.
        """
        dead = set(dead)
        g = self._successor_guid(key % ID_SPACE)
        n = len(self._ring)
        i = self._ring.index(g)
        for j in range(n):
            candidate = self._peer_at[self._ring[(i + j) % n]]
            if candidate not in dead:
                return candidate
        raise ValueError("all peers are marked dead")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _successor_guid(self, key: int) -> int:
        """First peer GUID clockwise at or after ``key``."""
        i = bisect.bisect_left(self._ring, key)
        return self._ring[i % len(self._ring)]

    def _successor_guid_after(self, guid: int) -> int:
        """First peer GUID strictly after ``guid`` (wrapping)."""
        i = bisect.bisect_right(self._ring, guid)
        return self._ring[i % len(self._ring)]

    def _predecessor_guid(self, guid: int) -> int:
        """First peer GUID strictly before ``guid`` (wrapping)."""
        i = bisect.bisect_left(self._ring, guid)
        return self._ring[(i - 1) % len(self._ring)]

    def _rebuild_fingers(self) -> None:
        """Recompute every peer's finger table.

        finger[i] of peer p = successor(p + 2^i); stored deduplicated
        in ring order for the closest-preceding scan.
        """
        self._fingers = {}
        for g in self._ring:
            table = []
            seen = set()
            for i in range(ID_BITS):
                f = self._successor_guid((g + (1 << i)) % ID_SPACE)
                if f not in seen and f != g:
                    seen.add(f)
                    table.append(f)
            self._fingers[g] = table
        # Peer ids sorted over a sentinel past every id, and their ring
        # positions.
        ids = np.array(self.peers + [np.iinfo(np.int64).max], dtype=np.int64)
        order = np.argsort(ids)
        self._positions = (ids[order], order)
        # Derived from the membership: rebuilt on next use.
        self._hops = None

    def _build_hops(self) -> np.ndarray:
        """:meth:`hop_table`: one next-hop matrix, then every (start,
        owner) pair's route followed to its end at once."""
        n = len(self._ring)
        if n == 1:  # the one peer owns every key
            return np.zeros((1, 1), dtype=np.int16)
        position_of = {g: i for i, g in enumerate(self._ring)}
        ahead = np.arange(n, dtype=np.int32)
        # step[c, d]: where the peer at position c forwards a key whose
        # owner is d >= 1 positions ahead (its fingers as offsets).
        step = np.empty((n, n), dtype=np.int32)
        for c, g in enumerate(self._ring):
            fingers = np.sort([(position_of[f] - c) % n for f in self._fingers[g]])
            at = np.maximum(np.searchsorted(fingers, ahead) - 1, 0)
            step[c] = (c + fingers[at]) % n
        owner = np.tile(ahead, n)
        current = np.repeat(ahead, n)
        # A route takes at most ID_BITS + 2 hops.
        hops = np.zeros(n * n, dtype=np.int16)
        on = np.flatnonzero(current != owner)
        while on.size:
            hops[on] += 1
            c = current[on]
            current[on] = step[c, (owner[on] - c) % n]
            on = on[current[on] != owner[on]]
        return hops.reshape(n, n)

    def _closest_preceding(self, current: int, key: int) -> int:
        """Closest finger of ``current`` strictly between it and the key."""
        for f in reversed(self._fingers[current]):
            if in_interval(f, current, key, inclusive_right=False):
                return f
        return current


def _record_lookups(hops: Sequence[int]) -> None:
    """Count routed lookups and their hops in the metrics registry."""
    reg = get_registry()
    if not reg.enabled or not len(hops):
        return
    reg.counter(
        "p2p.chord.lookups", unit="lookups",
        description="routed DHT lookups (find_successor calls)",
    ).inc(len(hops))
    histogram = reg.histogram(
        "p2p.chord.hops", unit="hops",
        description="routing hops per lookup (O(log P) bound)",
    )
    for h in hops:
        histogram.observe(h)
