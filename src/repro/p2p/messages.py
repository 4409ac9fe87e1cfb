"""Pagerank update messages and per-peer batching (paper §2.3, §4.6.1).

The protocol has a single message type: *pagerank update* — "document
X's contribution to you is now v".  The paper's traffic accounting
(§4.6.1) prices each at 24 bytes: a 128-bit target GUID plus a 64-bit
rank value; and its execution-time model assumes peers batch all
updates bound for the same destination peer within a pass into one
network call.  Both conventions are encoded here so every layer prices
traffic identically.

Updates exist in two shapes with one meaning: a
:class:`PagerankUpdate` object per message (what the asynchronous
runtime carries), and :class:`UpdateColumns`, a run of updates as
parallel arrays (what a peer stages for a whole pass, what the pass
simulator exchanges and receives, and — grouped into per-(sender,
receiver) batches as :class:`BatchColumns` — what the reliable
transport holds in flight).  The wire price is the same 24 bytes per
update either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

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
    """

    target: np.ndarray
    source: np.ndarray
    value: np.ndarray
    version: np.ndarray

    @classmethod
    def empty(cls) -> "UpdateColumns":
        """No updates."""
        ids = np.empty(0, dtype=np.int64)
        return cls(ids, ids, np.empty(0, dtype=np.float64), ids)

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
        )

    def take(self, rows: np.ndarray) -> "UpdateColumns":
        """The given rows (an index array or boolean mask), in that order."""
        return UpdateColumns(
            self.target[rows], self.source[rows], self.value[rows], self.version[rows]
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

    A peer stages single updates (:meth:`stage`, the per-document path
    of the asynchronous engines) or whole runs as columns with a
    destination peer per row (:meth:`stage_columns`, a pass or a
    republish).  The network layer drains everything in staging order,
    either as one :class:`MessageBatch` per destination
    (:meth:`batches`, for the asynchronous runtime's per-batch flights)
    or as columns (:meth:`take_columns`).
    """

    def __init__(self, owner_peer: int) -> None:
        self.owner_peer = owner_peer
        #: Column runs, oldest first; single updates staged after the
        #: last run wait in ``_loose`` until a run or a drain needs them
        #: in column form.
        self._runs: List[Tuple[np.ndarray, UpdateColumns]] = []
        self._loose: List[Tuple[int, PagerankUpdate]] = []

    def stage(self, dest_peer: int, update: PagerankUpdate) -> None:
        """Queue one ``update`` for ``dest_peer``."""
        self._loose.append((dest_peer, update))

    def stage_columns(self, dest_peers: np.ndarray, updates: UpdateColumns) -> None:
        """Queue a run of updates; row ``i`` goes to ``dest_peers[i]``."""
        self._seal_loose()
        self._runs.append((dest_peers, updates))

    def _seal_loose(self) -> None:
        """Turn the loose single updates into a column run, keeping order."""
        if self._loose:
            dests = np.array([d for d, _ in self._loose], dtype=np.int64)
            self._runs.append(
                (dests, UpdateColumns.from_updates([u for _, u in self._loose]))
            )
            self._loose = []

    def take_columns(self) -> Tuple[np.ndarray, UpdateColumns]:
        """Drain everything staged as ``(dest_peers, updates)``, rows in
        staging order."""
        self._seal_loose()
        runs, self._runs = self._runs, []
        dests = [d for d, _ in runs] or [np.empty(0, dtype=np.int64)]
        return np.concatenate(dests), UpdateColumns.concat([u for _, u in runs])

    def batches(self) -> List[MessageBatch]:
        """Drain and return all staged updates as one batch per
        destination, destinations in first-staging order and updates in
        staging order within each (fault injection draws per batch in
        this order, so it is part of a seeded run's identity)."""
        if self._runs:
            dests, runs = self.take_columns()
            staged: Iterable[Tuple[int, PagerankUpdate]] = zip(dests.tolist(), runs)
        else:
            staged, self._loose = self._loose, []
        out: Dict[int, MessageBatch] = {}
        for dest, update in staged:
            batch = out.get(dest)
            if batch is None:
                batch = out[dest] = MessageBatch(self.owner_peer, dest)
            batch.updates.append(update)
        return list(out.values())

    def wipe(self) -> int:
        """Discard everything staged (crash-with-state-loss semantics).

        Returns the number of updates destroyed, for the fault layer's
        state-loss accounting.
        """
        lost = len(self)
        self._runs = []
        self._loose = []
        return lost

    def __len__(self) -> int:
        """Total staged updates across all destinations."""
        return sum(len(u) for _, u in self._runs) + len(self._loose)

    @property
    def destinations(self) -> Tuple[int, ...]:
        """Distinct destination peers, in first-staging order."""
        dests = [d for arr, _ in self._runs for d in arr.tolist()]
        dests.extend(d for d, _ in self._loose)
        return tuple(dict.fromkeys(dests))
