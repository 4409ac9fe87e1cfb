"""Pagerank update messages and per-peer batching (paper §2.3, §4.6.1).

The protocol has a single message type: *pagerank update* — "document
X's contribution to you is now v".  The paper's traffic accounting
(§4.6.1) prices each at 24 bytes: a 128-bit target GUID plus a 64-bit
rank value; and its execution-time model assumes peers batch all
updates bound for the same destination peer within a pass into one
network call.  Both conventions are encoded here so every layer prices
traffic identically.

Updates exist in two shapes with one meaning: a
:class:`PagerankUpdate` object per message (what a :class:`Peer
<repro.p2p.peer.Peer>` stages into its :class:`Outbox` and the
asynchronous runtime carries, one :class:`MessageBatch` per
destination), and :class:`UpdateColumns`, a run of updates as parallel
arrays (what the pass simulator stages, exchanges and receives, and —
grouped into per-(sender, receiver) batches as :class:`BatchColumns` —
what the reliable transport holds in flight).  The wire price is the
same 24 bytes per update either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "MESSAGE_SIZE_BYTES",
    "ACK_SIZE_BYTES",
    "PagerankUpdate",
    "UpdateColumns",
    "BatchColumns",
    "MessageBatch",
    "BatchAck",
    "Outbox",
]

#: Bytes per pagerank update message: 128-bit GUID + 64-bit value (§4.6.1).
MESSAGE_SIZE_BYTES = 24

#: Bytes per batch acknowledgement: a 64-bit flight id plus the 64-bit
#: sender/receiver pair.  Reliability-layer overhead, never part of the
#: paper's 24-byte update accounting (docs/PROTOCOL.md §13).
ACK_SIZE_BYTES = 24


@dataclass(frozen=True)
class PagerankUpdate:
    """One pagerank update message.

    Attributes
    ----------
    target_doc:
        Document the update is addressed to (the link target).
    source_doc:
        Document whose rank changed (the link source).  Receivers need
        it to know *which* in-link's contribution to replace.
    value:
        The sender's new rank.  Deletion updates carry the negated rank
        (§3.1); the sign is data, not protocol.
    version:
        Per-source publish sequence number.  The paper's message format
        (GUID + value) has no ordering information, but with realistic
        latencies two updates from the same document can arrive out of
        order, and applying the older one last leaves the receiver
        permanently stale — a failure mode this reproduction's
        asynchronous simulator actually hit.  Receivers keep only the
        highest version per source (:meth:`repro.p2p.peer.Peer.receive`).
    """

    target_doc: int
    source_doc: int
    value: float
    version: int = 0

    @property
    def size_bytes(self) -> int:
        """Wire size under the paper's 24-byte accounting."""
        return MESSAGE_SIZE_BYTES


@dataclass(frozen=True, eq=False)
class UpdateColumns:
    """A run of pagerank updates as parallel arrays, one row per update.

    Row ``i`` is the update ``PagerankUpdate(target[i], source[i],
    value[i], version[i])``; ``len()`` is the update count and
    iteration yields those objects in row order.  Rows keep the order
    they were staged in, which receivers rely on (a later row for the
    same source is a later arrival).

    ``edge`` is bookkeeping, not wire data: the position in
    ``graph.indices`` of the link ``source -> target`` a row was staged
    from, or -1 (the default) for a row not staged from a link.  It
    rides along with every row, so the wire price stays 24 bytes.
    """

    target: np.ndarray
    source: np.ndarray
    value: np.ndarray
    version: np.ndarray
    edge: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.edge is None:
            object.__setattr__(self, "edge", np.full(self.target.size, -1, dtype=np.int64))

    @classmethod
    def empty(cls) -> "UpdateColumns":
        """No updates."""
        ids = np.empty(0, dtype=np.int64)
        return cls(ids, ids, np.empty(0, dtype=np.float64), ids, ids)

    @classmethod
    def from_updates(cls, updates: Sequence[PagerankUpdate]) -> "UpdateColumns":
        """Columns holding ``updates`` in order."""
        return cls(
            np.array([u.target_doc for u in updates], dtype=np.int64),
            np.array([u.source_doc for u in updates], dtype=np.int64),
            np.array([u.value for u in updates], dtype=np.float64),
            np.array([u.version for u in updates], dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence["UpdateColumns"]) -> "UpdateColumns":
        """The rows of ``parts`` one after another."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.target for p in parts]),
            np.concatenate([p.source for p in parts]),
            np.concatenate([p.value for p in parts]),
            np.concatenate([p.version for p in parts]),
            np.concatenate([p.edge for p in parts]),
        )

    def take(self, rows: np.ndarray) -> "UpdateColumns":
        """The given rows (an index array or boolean mask), in that order."""
        return UpdateColumns(
            self.target[rows], self.source[rows], self.value[rows],
            self.version[rows], self.edge[rows],
        )

    def __len__(self) -> int:
        return int(self.target.size)

    def __iter__(self) -> Iterator[PagerankUpdate]:
        return map(
            PagerankUpdate,
            self.target.tolist(),
            self.source.tolist(),
            self.value.tolist(),
            self.version.tolist(),
        )

    @property
    def size_bytes(self) -> int:
        """Wire size under the paper's 24-byte accounting."""
        return len(self) * MESSAGE_SIZE_BYTES


@dataclass(frozen=True, eq=False)
class BatchColumns:
    """Many (sender, receiver) batches as columns.

    Batch ``i`` carries rows ``offsets[i]:offsets[i + 1]`` of
    ``updates`` from peer ``senders[i]`` to peer ``receivers[i]``;
    ``len()`` is the number of batches.  The pass simulator submits a
    pass's fresh batches to the reliable transport in this shape, and
    the transport hands delivered copies back in it.
    """

    senders: np.ndarray
    receivers: np.ndarray
    offsets: np.ndarray
    updates: UpdateColumns

    def __len__(self) -> int:
        return int(self.senders.size)

    @property
    def sizes(self) -> np.ndarray:
        """Updates per batch."""
        return np.diff(self.offsets)

    def select(self, keep: np.ndarray) -> "BatchColumns":
        """The batches a boolean mask keeps, in order."""
        sizes = self.sizes
        offsets = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
        np.cumsum(sizes[keep], out=offsets[1:])
        return BatchColumns(
            self.senders[keep], self.receivers[keep], offsets,
            self.updates.take(np.repeat(keep, sizes)),
        )

    @property
    def size_bytes(self) -> int:
        """Wire size under the paper's 24-byte accounting."""
        return self.updates.size_bytes


@dataclass
class MessageBatch:
    """All updates one peer sends to one other peer within a pass.

    The §4.6.1 transfer model serialises one network call per
    (sender, receiver) pair per pass; the batch is that call's payload.
    """

    sender_peer: int
    receiver_peer: int
    updates: List[PagerankUpdate] = field(default_factory=list)

    def add(self, update: PagerankUpdate) -> None:
        self.updates.append(update)

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[PagerankUpdate]:
        return iter(self.updates)

    @property
    def size_bytes(self) -> int:
        """Total payload bytes (updates only; headers ignored, as in
        the paper's estimate)."""
        return len(self.updates) * MESSAGE_SIZE_BYTES


@dataclass(frozen=True)
class BatchAck:
    """Receiver's acknowledgement of one delivered batch flight.

    Part of the reliable-delivery layer (:mod:`repro.faults.transport`),
    not of the paper's protocol: ``flight_id`` is the transport-level
    transfer id being confirmed.  Acks are priced separately
    (:data:`ACK_SIZE_BYTES`) and never count toward the paper's update
    traffic model.
    """

    flight_id: int
    sender_peer: int
    receiver_peer: int

    @property
    def size_bytes(self) -> int:
        return ACK_SIZE_BYTES


class Outbox:
    """Per-peer staging area for outgoing updates.

    A peer stages one update at a time (:meth:`stage`) into one
    :class:`MessageBatch` per destination peer, the network call the
    §4.6.1 model serialises.  Destinations keep their first-staging
    order and each batch its updates' staging order; the network layer
    drains the batches in that order (:meth:`batches`), and fault
    injection draws per batch in it, so it is part of a seeded run's
    identity.
    """

    def __init__(self, owner_peer: int) -> None:
        self.owner_peer = owner_peer
        self._batches: Dict[int, MessageBatch] = {}

    def stage(self, dest_peer: int, update: PagerankUpdate) -> None:
        """Queue one ``update`` for ``dest_peer``."""
        batch = self._batches.get(dest_peer)
        if batch is None:
            batch = self._batches[dest_peer] = MessageBatch(self.owner_peer, dest_peer)
        batch.updates.append(update)

    def batches(self) -> List[MessageBatch]:
        """Drain and return all staged updates as one batch per
        destination, in staging order."""
        out = list(self._batches.values())
        self._batches = {}
        return out

    def wipe(self) -> int:
        """Discard everything staged (crash-with-state-loss semantics).

        Returns the number of updates destroyed, for the fault layer's
        state-loss accounting.
        """
        lost = len(self)
        self._batches = {}
        return lost

    def __len__(self) -> int:
        """Total staged updates across all destinations."""
        return sum(len(b) for b in self._batches.values())

    @property
    def destinations(self) -> Tuple[int, ...]:
        """Distinct destination peers, in first-staging order."""
        return tuple(self._batches)
