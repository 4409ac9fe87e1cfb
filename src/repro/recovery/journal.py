"""Per-peer durability journal: WAL + snapshots wrapped around a Peer.

This is the durable state layer of the self-healing runtime
(docs/PROTOCOL.md §15): a :class:`PeerJournal` sits between a
:class:`~repro.runtime.node.PeerNode` and its
:class:`~repro.p2p.peer.Peer` and intercepts every durable mutation —
log first, then apply.  Because the log captures the *inputs* of each
mutation (received batches, recompute triggers) rather than their
float results, :meth:`PeerJournal.replay` re-executes the identical
floating-point operations in the identical order against a fresh peer,
reproducing the pre-crash durable state **bitwise** — the recovery
guarantee the crash differential tests and the soak harness assert.

Compaction follows the classic checkpoint-plus-tail scheme: every
``snapshot_interval`` appended records the journal captures a
:class:`~repro.recovery.snapshot.PeerSnapshot` and truncates the WAL,
so restart cost is bounded by the interval, not the run length
(§3.1's expectation that peers crash and rejoin routinely).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.linkgraph import LinkGraph
from repro.p2p.messages import PagerankUpdate
from repro.p2p.peer import Peer
from repro.recovery.snapshot import PeerSnapshot
from repro.recovery.wal import WalRecord, WriteAheadLog

__all__ = ["PeerJournal", "durable_state_equal"]


def durable_state_equal(a: Peer, b: Peer) -> bool:
    """True when two peers' durable state is bitwise identical.

    Exact ``==`` on the float dicts is deliberate: replay promises
    bit-identical state, not state within a tolerance
    (docs/PROTOCOL.md §15.1).
    """
    return (
        tuple(int(d) for d in a.documents) == tuple(int(d) for d in b.documents)
        and a.rank == b.rank
        and a.published == b.published
        and a.remote_values == b.remote_values
        and a._remote_versions == b._remote_versions
        and a._publish_version == b._publish_version
    )


class PeerJournal:
    """Log-then-apply wrapper over one peer's durable mutations.

    Parameters
    ----------
    peer:
        The live peer this journal records for (rebindable after a
        restart via :meth:`rebind`).
    graph:
        The link graph replayed peers are rebuilt against.
    damping, epsilon, peer_of, gate:
        The run's fixed recompute parameters; ``comp`` records store
        only the document id because these never change mid-run.
    snapshot_interval:
        Appended records between snapshot-and-truncate compactions.
    wal:
        Optional pre-built :class:`~repro.recovery.wal.WriteAheadLog`
        (e.g. file-backed); defaults to an in-memory log.
    """

    def __init__(
        self,
        peer: Peer,
        graph: LinkGraph,
        *,
        damping: float,
        epsilon: float,
        peer_of: np.ndarray,
        gate: str = "published",
        snapshot_interval: int = 256,
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        if snapshot_interval < 1:
            raise ValueError(
                f"snapshot_interval must be >= 1, got {snapshot_interval}"
            )
        self.peer = peer
        self.graph = graph
        self.damping = float(damping)
        self.epsilon = float(epsilon)
        self.peer_of = peer_of
        self.gate = gate
        self.snapshot_interval = int(snapshot_interval)
        self.wal = wal if wal is not None else WriteAheadLog()
        # The recovery base: the durable state at journal creation.
        self._snapshot = PeerSnapshot.capture(peer)
        self.snapshots_taken = 0
        self.replays = 0
        self.replayed_records = 0

    # ------------------------------------------------------------------
    @property
    def records_appended(self) -> int:
        return self.wal.appended

    @property
    def snapshot(self) -> PeerSnapshot:
        """The current recovery base (latest compaction checkpoint)."""
        return self._snapshot

    def rebind(self, peer: Peer) -> None:
        """Point the journal at a restarted peer (same id, same log)."""
        if peer.peer_id != self.peer.peer_id:
            raise ValueError("journal can only rebind to the same peer id")
        self.peer = peer

    # ------------------------------------------------------------------
    # Log-then-apply mutation wrappers
    # ------------------------------------------------------------------
    def apply_batch(self, updates: Iterable[PagerankUpdate]) -> int:
        """Journal and fold one received update batch; returns how many
        updates mutated state (duplicates re-suppress on replay)."""
        updates = list(updates)
        self.wal.append(
            WalRecord(
                kind="recv",
                payload=tuple(
                    (u.target_doc, u.source_doc, u.value, u.version)
                    for u in updates
                ),
            )
        )
        applied = self.peer.receive_batch(updates)
        self._maybe_compact()
        return applied

    def apply_recompute(self, doc: int) -> Tuple[float, bool]:
        """Journal and run one event-driven recompute of ``doc``."""
        self.wal.append(WalRecord(kind="comp", payload=int(doc)))
        result = self.peer.recompute_document(
            doc, self.damping, self.epsilon, self.peer_of, gate=self.gate
        )
        self._maybe_compact()
        return result

    # ------------------------------------------------------------------
    # Compaction and replay
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if len(self.wal) >= self.snapshot_interval:
            self.compact()

    def compact(self) -> None:
        """Capture a snapshot of the live peer and truncate the WAL."""
        self._snapshot = PeerSnapshot.capture(self.peer)
        self.wal.truncate()
        self.snapshots_taken += 1

    def replay(self) -> Peer:
        """Rebuild the peer from snapshot + WAL tail (bitwise).

        The returned peer carries only durable state: its outbox is
        empty (in-flight sends died with the crash; the supervisor
        heals them by re-publishing — docs/PROTOCOL.md §15.2).
        """
        peer = self._snapshot.restore(self.graph)
        replayed = 0
        for record in self.wal:
            if record.kind == "recv":
                peer.receive_batch(
                    [
                        PagerankUpdate(
                            target_doc=t, source_doc=s, value=v, version=ver
                        )
                        for t, s, v, ver in record.payload
                    ]
                )
            elif record.kind == "comp":
                peer.recompute_document(
                    int(record.payload),
                    self.damping,
                    self.epsilon,
                    self.peer_of,
                    gate=self.gate,
                )
            replayed += 1
        # Replay re-stages publishes; those sends already happened (or
        # died) in the original timeline — recovery republishes instead.
        peer.outbox.wipe()
        self.replays += 1
        self.replayed_records += replayed
        return peer

    def verify_replay(self) -> bool:
        """True when replay reproduces the live peer bitwise (the §15.1
        recovery invariant; cheap enough to run at every crash)."""
        return durable_state_equal(self.replay(), self.peer)
