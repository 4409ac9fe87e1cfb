"""One peer as an asyncio task behind a mailbox (Fig. 1, executed).

A :class:`PeerNode` wraps the protocol-level
:class:`~repro.p2p.peer.Peer` state machine in the paper's literal
execution model: an event loop that waits for pagerank update
messages, folds them in, recomputes the addressed documents, and —
when a rank moves by more than ε — publishes and sends fresh updates
(paper §2.3; the ``while pagerank update message received`` loop of
Figure 1).

The node owns its :class:`~repro.runtime.mailbox.Mailbox` and its
sender-side :class:`~repro.runtime.reliability.FlightTracker`; the
transport and the clock are shared runtime plumbing.  Draining is
*batched per wake-up*: all queued envelopes are applied first, then
the due documents recompute, then all staged updates flush as one
batch per destination — the §4.6.1 batching convention, applied per
drain instead of per pass.

Recomputes go through one schedule: an applied arrival schedules its
target document at ``now + batch_window``, a publish schedules its
co-located out-link targets the same way (intra-peer propagation is
free, §2.3), and at most one recompute per document is pending.  With
the default ``batch_window=0`` the whole local cascade runs inside the
wake-up that caused it — chaotic relaxation at zero network cost.  A
positive window coalesces a document's arrivals over that span before
it recomputes once: the receiver-side batching that keeps
asynchronous traffic near the pass engines' (DESIGN.md §7, finding 2).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Optional, Set, Tuple

import numpy as np

from repro.faults.transport import ReliabilityConfig
from repro.p2p.messages import BatchAck
from repro.p2p.peer import Peer
from repro.runtime.mailbox import Mailbox
from repro.runtime.reliability import FlightTracker
from repro.runtime.transport import KIND_ACK, KIND_BATCH, Transport

__all__ = ["PeerNode"]


class PeerNode:
    """One peer's task: mailbox in, recomputes, reliable batches out.

    Parameters
    ----------
    peer:
        The wrapped protocol state machine.
    mailbox:
        The node's envelope queue (already connected to the transport).
    transport:
        Shared transport for outgoing batches and acks.
    clock:
        Shared clock (virtual in deterministic mode, real otherwise).
    damping, epsilon:
        Algorithm parameters.
    peer_of:
        Document → peer assignment array.
    gate:
        Publish gate forwarded to
        :meth:`repro.p2p.peer.Peer.recompute_document` (``"published"``
        bounds consumer staleness by ε; ``"rank"`` is the Figure-1
        literal).
    reliability:
        Ack/retry/backoff parameters (shared semantics with
        :class:`repro.faults.ReliableTransport`).
    pass_time:
        Clock units per pass-equivalent (scales reliability timeouts).
    batch_window:
        Delay between the arrival or co-located publish that dirties a
        document and its scheduled recompute (0 recomputes within the
        same wake-up).
    instruments:
        Optional runtime metrics handle (``_RuntimeInstruments``).
    journal:
        Optional :class:`~repro.recovery.journal.PeerJournal`.  When
        set, every durable mutation (received batch, event-driven
        recompute) goes through the journal's log-then-apply wrappers
        so a supervised restart can replay the peer bitwise
        (docs/PROTOCOL.md §15).
    sanitizer:
        Optional :class:`~repro.sanitize.hb.RuntimeSanitizer`.  When
        set, the node announces each wake-up (a vector-clock tick) and
        merges the sender's stamp off every envelope it applies —
        the happens-before edges the race detector builds on.
    """

    def __init__(
        self,
        peer: Peer,
        mailbox: Mailbox,
        transport: Transport,
        clock,
        *,
        damping: float,
        epsilon: float,
        peer_of: np.ndarray,
        gate: str = "published",
        reliability: Optional[ReliabilityConfig] = None,
        pass_time: float = 1.0,
        batch_window: float = 0.0,
        instruments=None,
        journal=None,
        sanitizer=None,
    ) -> None:
        self.peer = peer
        self.mailbox = mailbox
        self.transport = transport
        self.clock = clock
        self.damping = float(damping)
        self.epsilon = float(epsilon)
        self.peer_of = peer_of
        self.gate = gate
        self.tracker = FlightTracker(
            reliability if reliability is not None else ReliabilityConfig(),
            pass_time=pass_time,
        )
        self.batch_window = float(batch_window)
        # The recompute schedule: (due, doc) in insertion order, at most
        # one entry per document (``_pending``).  Every entry is due at
        # the scheduling wake-up's clock reading plus the same window and
        # the clock never goes back, so insertion order is due order.
        self._worklist: Deque[Tuple[float, int]] = deque()
        self._pending: Set[int] = set()
        self._instruments = instruments
        self._journal = journal
        self._san = sanitizer
        self._task_name = f"peer{peer.peer_id}"
        self._signal = asyncio.Event()
        self._drained = asyncio.Event()
        self._stop = False
        self._failed = False
        self._started = False
        self.task: Optional[asyncio.Task] = None
        # Plain counters, aggregated by the runtime into report/metrics.
        self.messages_sent = 0
        self.batches_sent = 0
        self.acks_sent = 0
        self.recomputes = 0
        self.redeliveries_suppressed = 0

    # ------------------------------------------------------------------
    # Wake/step protocol
    # ------------------------------------------------------------------
    def wake(self) -> None:
        """Signal the task to drain (free-running mode's ``on_put``)."""
        self._signal.set()

    async def step(self) -> None:
        """Deterministic-scheduler handshake: wake the task and wait
        until it has fully drained its mailbox and serviced timers.
        Re-raises the exception if the task died instead."""
        self._drained.clear()
        self._signal.set()
        await self._drained.wait()
        if self._failed:
            await self.task

    def request_stop(self) -> None:
        """Ask the task to exit after one final apply-only drain."""
        self._stop = True
        self._signal.set()

    def next_due(self) -> Optional[float]:
        """Earliest retry deadline or scheduled recompute, if any."""
        flight = self.tracker.next_due()
        if not self._worklist:
            return flight
        recompute = self._worklist[0][0]
        return recompute if flight is None else min(flight, recompute)

    def timer_due(self, now: float) -> bool:
        """True when a retry deadline or a scheduled recompute is due."""
        due = self.next_due()
        return due is not None and due <= now

    @property
    def pending_recomputes(self) -> int:
        """Documents with a scheduled, not yet run, recompute."""
        return len(self._worklist)

    @property
    def started(self) -> bool:
        return self._started

    def mark_resumed(self) -> None:
        """Skip the Fig. 1 initial pass: this node resumes a replayed
        peer whose state already reflects past computation (§15.4)."""
        self._started = True

    def flush_outbox(self, now: float) -> None:
        """Launch whatever is staged in the peer's outbox (used by the
        supervisor for recovery re-publishes, outside a drain)."""
        self._flush(now)

    # ------------------------------------------------------------------
    # Task body
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """The peer's event loop (one asyncio task per peer)."""
        try:
            while True:
                await self._signal.wait()
                self._signal.clear()
                if self._san is not None:
                    self._san.begin_step(self._task_name)
                if self._stop:
                    self._final_drain()
                    self._drained.set()
                    return
                now = float(self.clock.now())
                if not self._started:
                    self._started = True
                    self._initial_pass(now)
                self._drain(now)
                self._service_timers(now)
                self._drained.set()
        except BaseException:
            # Release a waiting step() so it can re-raise from the task.
            self._failed = True
            self._drained.set()
            raise

    # ------------------------------------------------------------------
    # Protocol steps (synchronous within one wake-up)
    # ------------------------------------------------------------------
    def _initial_pass(self, now: float) -> None:
        """Fig. 1 "At time = 0": every local document computes once and
        announces itself."""
        for doc in self.peer.documents:
            self._schedule_recompute(int(doc), now)
        self._run_worklist(now)
        self._flush(now)

    def _drain(self, now: float) -> None:
        """Apply every queued envelope, run the due recomputes, flush
        staged sends."""
        envelopes = self.mailbox.drain()
        if envelopes:
            self._apply(envelopes, now)
        if self._recompute_due(now):
            self._run_worklist(now)
            self._flush(now)
        if envelopes:
            self.mailbox.done(len(envelopes))

    def _apply(self, envelopes, now: float) -> None:
        """Fold in batches (acking each) and acks; schedule the
        addressed documents' recomputes."""
        if self._instruments is not None:
            self._instruments.backlog.observe(len(envelopes))
        dirty: Set[int] = set()
        for envelope in envelopes:
            if self._san is not None:
                self._san.recv(envelope)
            if envelope.kind == KIND_BATCH:
                batch = envelope.payload
                if self._journal is not None:
                    applied = self._journal.apply_batch(batch.updates)
                else:
                    applied = self.peer.receive_batch(batch.updates)
                self.redeliveries_suppressed += len(batch) - applied
                for update in batch.updates:
                    dirty.add(int(update.target_doc))
                self.acks_sent += 1
                self.transport.send_ack(
                    BatchAck(
                        flight_id=envelope.flight_id,
                        sender_peer=self.peer.peer_id,
                        receiver_peer=envelope.sender,
                    ),
                    now=now,
                )
            elif envelope.kind == KIND_ACK:
                self.tracker.on_ack(envelope.payload)
            else:  # pragma: no cover - transport constructs the kinds
                raise ValueError(f"unknown envelope kind {envelope.kind!r}")
        due = now + self.batch_window
        for doc in sorted(dirty):
            self._schedule_recompute(doc, due)

    def _schedule_recompute(self, doc: int, due: float) -> None:
        if doc not in self._pending:
            self._pending.add(doc)
            self._worklist.append((due, doc))

    def _recompute_due(self, now: float) -> bool:
        return bool(self._worklist) and self._worklist[0][0] <= now

    def _run_worklist(self, now: float) -> None:
        """Run every recompute due by ``now``, in (due, insertion) order.

        A publish schedules the co-located out-link targets at
        ``now + batch_window``; with a zero window they are due at once
        and the local cascade runs to its fixpoint here.  Termination
        follows from the ε gate: every re-schedule is caused by a > ε
        publish, and the damped iteration's changes shrink
        geometrically.
        """
        work = self._worklist
        pending = self._pending
        peer = self.peer
        peer_id = peer.peer_id
        due = now + self.batch_window
        while work and work[0][0] <= now:
            doc = work.popleft()[1]
            pending.discard(doc)
            if self._journal is not None:
                _, published = self._journal.apply_recompute(doc)
            else:
                _, published = peer.recompute_document(
                    doc, self.damping, self.epsilon, self.peer_of, gate=self.gate
                )
            self.recomputes += 1
            if not published:
                continue
            for target in peer.graph.out_links(doc):
                target = int(target)
                if int(self.peer_of[target]) == peer_id and target not in pending:
                    work.append((due, target))
                    pending.add(target)

    def _flush(self, now: float) -> None:
        """Launch every staged batch as a tracked flight."""
        for batch in self.peer.outbox.batches():
            flight = self.tracker.launch(batch, now)
            self.messages_sent += len(batch)
            self.batches_sent += 1
            self.transport.send_batch(
                batch, flight_id=flight.flight_id, attempt=1, now=now
            )

    def _service_timers(self, now: float) -> None:
        """Retransmit timed-out flights (abandonment happens inside
        the tracker once the retry budget is exhausted)."""
        for flight in self.tracker.due(now):
            self.transport.send_batch(
                flight.batch,
                flight_id=flight.flight_id,
                attempt=flight.attempts,
                now=now,
            )

    def _final_drain(self) -> None:
        """Graceful shutdown: apply queued knowledge, send nothing.

        Received batches still fold into local state (no update is
        silently discarded) and pending acks clear flights, but no
        acknowledgement, recompute, or send is generated — the node is
        leaving, not computing.
        """
        envelopes = self.mailbox.drain()
        for envelope in envelopes:
            if self._san is not None:
                self._san.recv(envelope)
            if envelope.kind == KIND_BATCH:
                if self._journal is not None:
                    self._journal.apply_batch(envelope.payload.updates)
                else:
                    self.peer.receive_batch(envelope.payload.updates)
            elif envelope.kind == KIND_ACK:
                self.tracker.on_ack(envelope.payload)
        if envelopes:
            self.mailbox.done(len(envelopes))
