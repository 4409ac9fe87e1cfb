"""Reliable batch delivery over a faulty transport (acks + backoff).

The protocol's wire format (docs/PROTOCOL.md §2) has no reliability:
a :class:`~repro.p2p.messages.MessageBatch` that the network drops is
simply gone, and the §3.1 store-and-resend rule only covers receivers
known to be *absent* — not messages lost in flight.  This module adds
the missing layer, the classic positive-ack protocol:

* every batch transfer is a **flight** with a transport-level id;
* a delivered batch is acknowledged by the receiver
  (:class:`~repro.p2p.messages.BatchAck`); the ack travels the same
  lossy links and can itself be dropped;
* an unacknowledged flight is retransmitted after a timeout, with the
  timeout doubling per attempt (exponential backoff) up to a retry
  budget; exhausting the budget *abandons* the flight and parks its
  batch, and the parked batches are the record of which (sender,
  receiver) links are black-holed and what they still owe;
* retransmits necessarily produce duplicate deliveries; the receiver's
  per-source version dedup (`Peer.receive`, which rejects equal-or-
  older versions) makes them no-ops, and the transport counts how many
  updates that suppression absorbed.

Fault decisions (drop/duplicate/delay/partition) come from the seeded
:class:`~repro.faults.plan.FaultPlan`; the transport itself is
deterministic given the plan and the engine's call order.

Degradation is graceful, not silent: :class:`StagnationDetector`
watches for passes in which the computation is quiescent yet
undeliverable updates remain, and :class:`FaultDiagnostics` is the
abort report — which links are black-holed and how much update mass
never arrived — returned on :class:`~repro.core.convergence.RunReport`
instead of spinning to the pass cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Dict, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.p2p.messages import BatchColumns, UpdateColumns

__all__ = [
    "ReliabilityConfig",
    "FaultStats",
    "ReliableTransport",
    "StagnationDetector",
    "FaultDiagnostics",
]


@dataclass(frozen=True)
class ReliabilityConfig:
    """Ack/retry/backoff parameters of the reliable-delivery layer.

    Attributes
    ----------
    ack_timeout_passes:
        Passes to wait for an ack before the first retransmit.
    backoff_factor:
        Timeout multiplier per failed attempt (attempt ``k`` waits
        ``ack_timeout_passes * backoff_factor**(k-1)`` passes).
    max_retries:
        Retransmissions allowed per flight.  A flight still unacked
        after the budget is *abandoned*: its batch is parked, and while
        parked its updates count as undelivered for the diagnostics
        report.
    max_retry_delay_passes:
        Backoff ceiling.  Uncapped exponential backoff would park a
        flight for hundreds of passes — longer than the stagnation
        window — and starve an otherwise-recoverable run; capping it
        also bounds the worst-case pass count before a doomed flight
        exhausts its budget and is abandoned.
    """

    ack_timeout_passes: int = 2
    backoff_factor: float = 2.0
    max_retries: int = 10
    max_retry_delay_passes: int = 8

    def __post_init__(self) -> None:
        if self.ack_timeout_passes < 1:
            raise ValueError(
                f"ack_timeout_passes must be >= 1, got {self.ack_timeout_passes}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_retry_delay_passes < 1:
            raise ValueError(
                "max_retry_delay_passes must be >= 1, "
                f"got {self.max_retry_delay_passes}"
            )

    def retry_delay(self, attempt: int) -> int:
        """Whole passes to wait after failed attempt number ``attempt``."""
        delay = int(self.ack_timeout_passes * self.backoff_factor ** (attempt - 1))
        return max(1, min(delay, self.max_retry_delay_passes))


@dataclass
class FaultStats:
    """Plain-integer fault accounting, readable without the obs layer.

    All message quantities are update counts (the catalogue's
    *messages* unit); ``retries`` and ``partition_blocked_sends`` count
    batch transfers, ``acks``/``ack_drops`` count acknowledgements.
    Every field is cumulative over the run: ``abandoned_updates``
    counts each update whose flight ran out of retries, including
    batches that later relaunched or died with a crashed sender (what
    is still held is :attr:`FaultDiagnostics.abandoned_updates`).
    """

    dropped_updates: int = 0
    duplicated_updates: int = 0
    delayed_updates: int = 0
    acks_sent: int = 0
    acks_dropped: int = 0
    retries: int = 0
    redeliveries_suppressed: int = 0
    partition_blocked_sends: int = 0
    abandoned_updates: int = 0
    parked_updates: int = 0
    parked_resent: int = 0
    crashes: int = 0
    crash_state_loss: int = 0
    reboot_republished: int = 0
    stagnation_aborts: int = 0


class _FaultInstruments:
    """Registry handles for the fault layer's emissions (shared no-op
    singletons under the default disabled registry), one per
    :class:`FaultStats` field and named after it.  Catalogued in
    docs/OBSERVABILITY.md §4."""

    __slots__ = tuple(f.name for f in fields(FaultStats))

    def __init__(self, reg) -> None:
        self.dropped_updates = reg.counter(
            "faults.messages_dropped", unit="messages",
            description="updates lost to injected message drops",
        )
        self.duplicated_updates = reg.counter(
            "faults.messages_duplicated", unit="messages",
            description="updates delivered twice by injected duplication",
        )
        self.delayed_updates = reg.counter(
            "faults.messages_delayed", unit="messages",
            description="updates whose delivery was postponed (reordering)",
        )
        self.acks_sent = reg.counter(
            "faults.ack_messages", unit="acks",
            description="batch acknowledgements sent by receivers",
        )
        self.acks_dropped = reg.counter(
            "faults.acks_dropped", unit="acks",
            description="acknowledgements lost in transit (forces retransmit)",
        )
        self.retries = reg.counter(
            "faults.retries", unit="batches",
            description="batch retransmissions after ack timeout",
        )
        self.redeliveries_suppressed = reg.counter(
            "faults.redeliveries_suppressed", unit="messages",
            description="duplicate updates absorbed by receiver version dedup",
        )
        self.partition_blocked_sends = reg.counter(
            "faults.partition_blocked_sends", unit="batches",
            description="send attempts blocked by an active link partition",
        )
        self.abandoned_updates = reg.counter(
            "faults.abandoned_updates", unit="messages",
            description="updates whose flight exhausted the retry budget",
        )
        self.parked_updates = reg.counter(
            "faults.parked_updates", unit="messages",
            description="budget-exhausted updates parked into store-and-resend",
        )
        self.parked_resent = reg.counter(
            "faults.parked_resent", unit="messages",
            description="parked updates relaunched after their blockage cleared",
        )
        self.crashes = reg.counter(
            "faults.crashes", unit="peers",
            description="injected peer crashes (volatile state wiped)",
        )
        self.crash_state_loss = reg.counter(
            "faults.crash_state_loss", unit="messages",
            description="in-flight updates wiped by peer crashes",
        )
        self.reboot_republished = reg.counter(
            "faults.reboot_republished", unit="messages",
            description="updates re-announced by rebooted peers (crash recovery)",
        )
        self.stagnation_aborts = reg.counter(
            "faults.stagnation_aborts", unit="runs",
            description="runs aborted by the residual-stagnation detector",
        )


@dataclass(frozen=True)
class FaultDiagnostics:
    """Why a faulted run was aborted (the graceful-degradation report).

    Attributes
    ----------
    fired_at_pass:
        Pass index at which the stagnation detector fired.
    stagnant_passes:
        Consecutive quiescent-but-undeliverable passes observed.
    black_holed_links:
        ``((sender, receiver), undelivered_updates)`` per link still
        owing updates: its parked batches plus its unacked flights.
    black_holed_peers:
        Likely-culprit peers: those incident to at least half of the
        black-holed links (a fully partitioned peer touches all of its
        links; innocent bystanders touch only the ones to it).
    abandoned_updates:
        Updates in parked batches at abort time: flights that spent
        their retry budget and were neither relaunched nor wiped by
        their sender's crash.
    unacked_updates:
        Updates still sitting in unacknowledged flights at abort time.
    undelivered_mass:
        Total ``|value|`` mass of parked plus unacked updates — how
        much rank contribution never reached its consumers.

    Every field but the first two is read off the transport's parked
    and flight tables when the report is built; no running tally
    backs them.
    """

    fired_at_pass: int
    stagnant_passes: int
    black_holed_links: Tuple[Tuple[Tuple[int, int], int], ...]
    black_holed_peers: Tuple[int, ...]
    abandoned_updates: int
    unacked_updates: int
    undelivered_mass: float

    def describe(self) -> str:
        """Human-readable abort report."""
        lines = [
            f"residual stagnation after {self.stagnant_passes} quiescent "
            f"passes (aborted at pass {self.fired_at_pass}):",
            f"  undelivered updates: {self.abandoned_updates} abandoned, "
            f"{self.unacked_updates} still unacked "
            f"(|value| mass {self.undelivered_mass:.6g})",
        ]
        if self.black_holed_links:
            lines.append("  black-holed links (sender->receiver: updates):")
            for (s, r), n in self.black_holed_links:
                lines.append(f"    {s} -> {r}: {n}")
        if self.black_holed_peers:
            lines.append(
                "  unreachable peers: "
                + ", ".join(str(p) for p in self.black_holed_peers)
            )
        return "\n".join(lines)


class StagnationDetector:
    """Detects quiescent-but-undeliverable runs (graceful abort).

    A faulted run can reach a state where no document is active, yet
    undelivered updates remain that can never arrive (permanent
    partition, retry budget exhausted).  Without detection the engine
    would spin to ``max_passes`` doing nothing.  The detector counts
    consecutive passes that are *quiescent* (nothing published, no
    recompute owed) while undeliverable-or-stuck updates exist and no
    delivery succeeded; after ``window`` such passes it fires.
    """

    def __init__(self, window: int = 25) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self.streak = 0

    def observe(
        self,
        *,
        quiescent: bool,
        undelivered: int,
        delivered_this_pass: int,
        attempts_this_pass: int = 0,
    ) -> bool:
        """Record one pass; True when stagnation is established.

        A pass in which the transport still *attempted* a transmission
        is not stagnant — the retry machinery is working and will
        either get through or exhaust its budget (bounded by the
        backoff cap); only once nothing is even being tried does the
        clock run.
        """
        if (
            quiescent
            and undelivered > 0
            and delivered_this_pass == 0
            and attempts_this_pass == 0
        ):
            self.streak += 1
        else:
            self.streak = 0
        return self.streak >= self.window


#: One row per unacknowledged flight, in flight-id order; ``lo:hi`` is
#: its run of rows in the transport's update store.
_FLIGHT = np.dtype(
    [("fid", np.int64), ("sender", np.int64), ("receiver", np.int64),
     ("attempts", np.int64), ("due", np.int64), ("lo", np.int64), ("hi", np.int64)]
)
#: One row per budget-exhausted batch held in store-and-resend, in
#: parking order.  ``undeliverable`` records whether the batch has been
#: blocked by a partition or a down receiver since parking; relaunch is
#: *transition-gated* — only a batch that was blocked and whose
#: blockage has since cleared goes back on the wire.  A batch that
#: exhausted its budget on an open, up link lost to pure chance stays
#: parked (retrying it forever would just mask a hopeless loss rate).
_PARKED = np.dtype(
    [("sender", np.int64), ("receiver", np.int64), ("lo", np.int64),
     ("hi", np.int64), ("undeliverable", bool)]
)
#: One row per copy travelling the network, delivered in (due, seq)
#: order; ``attempt`` is the attempt that sent it.
_DELAYED = np.dtype(
    [("due", np.int64), ("seq", np.int64), ("fid", np.int64), ("attempt", np.int64),
     ("sender", np.int64), ("receiver", np.int64), ("lo", np.int64), ("hi", np.int64)]
)


def _slots(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Copy slots ``2 * attempt + (0 for the first copy, 1 for the
    duplicate)`` of the marked copies, in order: per attempt, its first
    copy, then its duplicate."""
    return np.sort(np.r_[2 * np.flatnonzero(first), 2 * np.flatnonzero(second) + 1])


def _per_link(rows: np.ndarray) -> Counter:
    """Updates per ``(sender, receiver)`` link over table rows."""
    links: Counter = Counter()
    senders, receivers = rows["sender"].tolist(), rows["receiver"].tolist()
    sizes = (rows["hi"] - rows["lo"]).tolist()
    for sender, receiver, n in zip(senders, receivers, sizes):
        links[sender, receiver] += n
    return links


def _row_positions(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The positions ``lo[i]:hi[i]`` of every range, one after another."""
    lens = hi - lo
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(int(lens.sum()))


class ReliableTransport:
    """Ack/retry/backoff delivery of message batches under a fault plan.

    Every unacknowledged flight is one row of a table of arrays (sender,
    receiver, attempts, next-due pass and a run of rows in one
    :class:`~repro.p2p.messages.UpdateColumns` store), so each pass
    advances all of them at once: :meth:`tick` picks the due flights
    with one mask, parks those whose retry budget is spent and walks
    the rest as one index array; :meth:`send` walks a whole pass's new
    flights.  A walk draws its fault outcomes through
    :meth:`~repro.faults.plan.FaultPlan.roll_attempts`, in the order a
    flight-at-a-time transport would.

    Parameters
    ----------
    plan:
        The seeded fault oracle.
    config:
        Ack/retry/backoff parameters.
    deliver:
        Engine callback ``deliver(copies) -> applied``, called once per
        :meth:`tick` or :meth:`send` that delivered anything.
        ``copies`` is a :class:`~repro.p2p.messages.BatchColumns` of
        every copy that reached its receiver, in delivery order; the
        callback hands them to the receiving peers and returns a
        boolean array marking the rows that mutated receiver state (the
        rest were suppressed by version dedup).  It must also do the
        engine's own bookkeeping (dirty marking, routing-hop charges).
    registry:
        Metrics registry (defaults to the process registry's no-ops).

    Per-pass delivery counts are exposed as ``pass_delivered`` /
    ``pass_resent`` / ``pass_batches`` / ``pass_attempts`` — reset by
    :meth:`begin_pass` — so the engine can fold them into its traffic
    summary and :class:`~repro.core.convergence.PassStats`.
    """

    def __init__(
        self,
        plan: FaultPlan,
        config: ReliabilityConfig,
        deliver: Callable[[BatchColumns], np.ndarray],
        *,
        registry=None,
    ) -> None:
        if registry is None:
            from repro.obs import get_registry

            registry = get_registry()
        self.plan = plan
        self.config = config
        self._deliver = deliver
        self.stats = FaultStats()
        self._obs = _FaultInstruments(registry)
        self._store = UpdateColumns.empty()
        self._flights = np.empty(0, dtype=_FLIGHT)
        self._parked = np.empty(0, dtype=_PARKED)
        self._delayed = np.empty(0, dtype=_DELAYED)
        self._next_fid = 0
        self._delay_seq = 0
        #: ``_delivered[fid]``: a copy of flight ``fid`` has reached its
        #: receiver (later copies count as suppressed redeliveries).
        self._delivered = np.zeros(0, dtype=bool)
        self._retry_delay = np.array(
            [0] + [config.retry_delay(a) for a in range(1, config.max_retries + 2)],
            dtype=np.int64,
        )
        self.pass_delivered = 0
        self.pass_resent = 0
        self.pass_batches = 0
        self.pass_attempts = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def unacked_updates(self) -> int:
        """Updates in flights still awaiting acknowledgement."""
        return int(self._sizes(self._flights).sum())

    @property
    def unacked_flights(self) -> int:
        return int(self._flights.size)

    @property
    def undeliverable_updates(self) -> int:
        """Parked plus still-unacked updates (convergence blockers).
        A parked batch counts until its blockage clears and it
        relaunches, or its sender crashes."""
        return int(self._sizes(self._parked).sum()) + self.unacked_updates

    @property
    def parked_batches(self) -> int:
        """Budget-exhausted batches held in store-and-resend."""
        return int(self._parked.size)

    def black_holed_links(self) -> Dict[Tuple[int, int], int]:
        """Links with parked batches, with the number of parked
        updates on each."""
        return dict(_per_link(self._parked))

    # ------------------------------------------------------------------
    # Pass lifecycle
    # ------------------------------------------------------------------
    def begin_pass(self, pass_index: int) -> None:
        """Reset the per-pass delivery counters."""
        self.pass_delivered = 0
        self.pass_resent = 0
        self.pass_batches = 0
        self.pass_attempts = 0

    def tick(self, pass_index: int, live) -> None:
        """Deliver due delayed copies, retransmit timed-out flights and
        relaunch parked batches whose blockage cleared.

        Call once per pass, after ``begin_pass`` and before the compute
        step (the transport's analogue of §3.1's resend-first rule).
        """
        copies = []
        self._deliver_delayed(pass_index, live, copies)
        flights = self._flights
        due = np.flatnonzero(flights["due"] <= pass_index)
        if due.size:
            spent = flights["attempts"][due] > self.config.max_retries
            parked = due[spent]
            retry = due[~spent]
            if parked.size:
                self._park(flights[parked], pass_index, live)
            flights["attempts"][retry] += 1
            self._count("retries", int(retry.size))
            acked = self._walk(pass_index, retry, live, copies)
            self._untrack(np.concatenate([parked, acked]))
        self._service_parked(pass_index, live, copies)
        self._hand_over(copies)

    def send(self, pass_index: int, batch: BatchColumns, live) -> None:
        """Submit freshly staged batches for reliable delivery: each
        becomes a new flight, attempted once now, in batch order."""
        if not len(batch):
            return
        base = len(self._store)
        self._store = UpdateColumns.concat([self._store, batch.updates])
        rows = self._launch(
            batch.senders, batch.receivers,
            base + batch.offsets[:-1], base + batch.offsets[1:],
        )
        copies = []
        self._untrack(self._walk(pass_index, rows, live, copies))
        self._hand_over(copies)
        self._compact()

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def wipe_sender(self, peer: int) -> int:
        """Crash semantics: drop every unacked flight and every parked
        batch originating at ``peer`` (its retransmit buffer and its
        store-and-resend area died with it; the reboot republish
        supersedes them).  Copies already travelling the network are
        left alone — they physically left the host.  Returns the number
        of updates wiped."""
        gone = np.flatnonzero(self._flights["sender"] == peer)
        parked = self._parked["sender"] == peer
        lost = int(self._sizes(self._flights[gone]).sum())
        lost += int(self._sizes(self._parked[parked]).sum())
        self._untrack(gone)
        self._parked = self._parked[~parked]
        return lost

    def note_crash(self, peer: int, state_loss: int) -> None:
        """Record a peer crash and its total volatile-state loss."""
        self._count("crashes")
        self._count("crash_state_loss", state_loss)

    def note_reboot_republish(self, staged: int) -> None:
        """Record a rebooted peer's conservative re-announcements."""
        self._count("reboot_republished", staged)

    def note_stagnation_abort(self) -> None:
        self._count("stagnation_aborts")

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def diagnose(self, pass_index: int, stagnant_passes: int) -> FaultDiagnostics:
        """Build the graceful-degradation abort report from the parked
        and flight tables."""
        links = _per_link(self._parked)
        links.update(_per_link(self._flights))
        incidence: Dict[int, int] = {}
        for s, r in links:
            incidence[s] = incidence.get(s, 0) + 1
            incidence[r] = incidence.get(r, 0) + 1
        threshold = max(1, (len(links) + 1) // 2)
        peers = tuple(sorted(p for p, n in incidence.items() if n >= threshold))
        return FaultDiagnostics(
            fired_at_pass=pass_index,
            stagnant_passes=stagnant_passes,
            black_holed_links=tuple(sorted(links.items())),
            black_holed_peers=peers,
            abandoned_updates=int(self._sizes(self._parked).sum()),
            unacked_updates=self.unacked_updates,
            undelivered_mass=self._mass(self._parked) + self._mass(self._flights),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _sizes(rows: np.ndarray) -> np.ndarray:
        return rows["hi"] - rows["lo"]

    def _count(self, field: str, n: int = 1) -> None:
        """Add ``n`` to one :class:`FaultStats` field and to the
        ``faults.`` counter of the same name."""
        setattr(self.stats, field, getattr(self.stats, field) + n)
        getattr(self._obs, field).inc(n)

    def _mass(self, rows: np.ndarray) -> float:
        """Total ``|value|`` of the table rows' updates, summed in row
        order within each row's run and run by run in table order."""
        value = self._store.value
        mass = 0.0
        for lo, hi in zip(rows["lo"].tolist(), rows["hi"].tolist()):
            mass += sum(np.abs(value[lo:hi]).tolist())
        return mass

    def _launch(self, senders, receivers, lo, hi) -> np.ndarray:
        """Append new flights (first attempt pending); returns their
        table rows."""
        n = senders.size
        rows = np.zeros(n, dtype=_FLIGHT)
        rows["fid"] = np.arange(self._next_fid, self._next_fid + n)
        rows["sender"], rows["receiver"] = senders, receivers
        rows["attempts"] = 1
        rows["lo"], rows["hi"] = lo, hi
        self._next_fid += n
        if self._next_fid > self._delivered.size:
            grown = np.zeros(max(2 * self._delivered.size, self._next_fid), dtype=bool)
            grown[: self._delivered.size] = self._delivered
            self._delivered = grown
        start = self._flights.size
        self._flights = np.concatenate([self._flights, rows])
        return np.arange(start, start + n)

    def _untrack(self, rows: np.ndarray) -> None:
        """Remove the given flight-table rows (acked, parked or wiped)."""
        if rows.size:
            self._flights = np.delete(self._flights, rows)

    def _walk(
        self, pass_index: int, rows: np.ndarray, live, copies: list
    ) -> np.ndarray:
        """One transmission attempt of each flight-table row in ``rows``
        (ascending), recording delivered copies; returns the rows whose
        ack got through."""
        if not rows.size:
            return rows
        flights = self._flights
        self.pass_attempts += int(rows.size)
        flights["due"][rows] = pass_index + self._retry_delay[flights["attempts"][rows]]
        blocked = self.plan.links_blocked(
            pass_index, flights["sender"][rows], flights["receiver"][rows]
        )
        if blocked.any():
            self._count("partition_blocked_sends", int(blocked.sum()))
            rows = rows[~blocked]
        f = flights[rows]
        up = live[f["receiver"]]
        fates = self.plan.roll_attempts(pass_index, f["sender"], f["receiver"], up)
        size = self._sizes(f)
        self._count("dropped_updates", int(size[fates.dropped].sum()))
        self._count("duplicated_updates", int(size[fates.duplicated].sum()))
        kept = ~fates.dropped
        first = kept & (fates.delay > 0)
        second = fates.duplicated & (fates.duplicate_delay > 0)
        if first.any() or second.any():
            self._hold(pass_index, f, fates, first, second)
        # Copies delivered now: each attempt's first copy, then its
        # duplicate.  A duplicate right behind a delivered first copy
        # is a redelivery even on the flight's first attempt.
        now_first = kept & (fates.delay == 0) & up
        now_second = fates.duplicated & (fates.duplicate_delay == 0) & up
        slot = _slots(now_first, now_second)
        at = slot >> 1
        d = f[at]
        fids = d["fid"]
        redelivery = self._delivered[fids] | ((slot & 1).astype(bool) & now_first[at])
        self._delivered[fids] = True
        resent = d["attempts"] > 1
        copies.append((d["sender"], d["receiver"], d["lo"], d["hi"], resent, redelivery))
        acks = int(fates.acks.sum())
        if acks:
            self._count("acks_sent", acks)
            self._count("acks_dropped", int(fates.ack_drops.sum()))
        return rows[fates.acked]

    def _hold(self, pass_index, f, fates, first, second) -> None:
        """Put an attempt run's delayed copies on the network, first
        copy then duplicate per attempt."""
        slot = _slots(first, second)
        at = slot >> 1
        delay = np.where(slot & 1, fates.duplicate_delay[at], fates.delay[at])
        held = np.zeros(slot.size, dtype=_DELAYED)
        held["due"] = pass_index + delay
        held["seq"] = np.arange(self._delay_seq, self._delay_seq + slot.size)
        self._delay_seq += slot.size
        held["fid"] = f["fid"][at]
        held["attempt"] = f["attempts"][at]
        for col in ("sender", "receiver", "lo", "hi"):
            held[col] = f[col][at]
        self._count("delayed_updates", int(self._sizes(held).sum()))
        self._delayed = np.concatenate([self._delayed, held])

    def _deliver_delayed(self, pass_index: int, live, copies: list) -> None:
        """Copies whose delay ran out arrive, in (due, seq) order; each
        that reaches a live receiver while its flight is still tracked
        draws its ack."""
        if not self._delayed.size:
            return
        is_due = self._delayed["due"] <= pass_index
        if not is_due.any():
            return
        due = self._delayed[is_due]
        self._delayed = self._delayed[~is_due]
        due = due[np.lexsort((due["seq"], due["due"]))]
        # A copy for a down receiver is lost on the floor; the retry
        # machinery will try again later.
        due = due[live[due["receiver"]]]
        if not due.size:
            return
        fids = due["fid"].tolist()
        tracked = set(self._flights["fid"].tolist())
        seen = set()
        redelivery = np.zeros(len(fids), dtype=bool)
        acked = []
        acks = lost = 0
        for i, fid in enumerate(fids):
            redelivery[i] = fid in seen or self._delivered[fid]
            seen.add(fid)
            if fid in tracked:
                acks += 1
                if self.plan.roll_ack_drop(pass_index):
                    lost += 1
                else:
                    tracked.discard(fid)
                    acked.append(fid)
        self._delivered[due["fid"]] = True
        copies.append(
            (due["sender"], due["receiver"], due["lo"], due["hi"],
             due["attempt"] > 1, redelivery)
        )
        self._count("acks_sent", acks)
        self._count("acks_dropped", lost)
        self._untrack(np.flatnonzero(np.isin(self._flights["fid"], acked)))

    def _hand_over(self, copies: list) -> None:
        """Give every delivered copy to the engine in one callback and
        count deliveries, resends and suppressed redeliveries.
        ``copies`` holds ``(sender, receiver, lo, hi, resent,
        redelivery)`` column runs in delivery order."""
        if not copies:
            return
        sender, receiver, lo, hi, resent, redelivery = map(np.concatenate, zip(*copies))
        size = hi - lo
        if not size.size:
            return
        offsets = np.zeros(size.size + 1, dtype=np.int64)
        np.cumsum(size, out=offsets[1:])
        batch = BatchColumns(
            sender, receiver, offsets, self._store.take(_row_positions(lo, hi))
        )
        applied = np.zeros(int(offsets[-1]) + 1, dtype=np.int64)
        np.cumsum(self._deliver(batch), out=applied[1:])
        applied = applied[offsets[1:]] - applied[offsets[:-1]]
        self.pass_delivered += int(offsets[-1])
        self.pass_batches += int(size.size)
        self.pass_resent += int(size[resent].sum())
        suppressed = int((size - applied)[redelivery].sum())
        self._count("redeliveries_suppressed", suppressed)

    def _park(self, rows: np.ndarray, pass_index: int, live) -> None:
        """Retry budget exhausted: park the batches into store-and-
        resend instead of dropping them (§3.1) — if a link heals or its
        receiver returns, its batch relaunches.  The parked rows are
        the only record of the black-holed links."""
        n = int(self._sizes(rows).sum())
        self._count("abandoned_updates", n)
        self._count("parked_updates", n)
        parked = np.zeros(rows.size, dtype=_PARKED)
        for col in ("sender", "receiver", "lo", "hi"):
            parked[col] = rows[col]
        parked["undeliverable"] = self._blocked(pass_index, parked, live)
        self._parked = np.concatenate([self._parked, parked])

    def _blocked(self, pass_index: int, rows: np.ndarray, live) -> np.ndarray:
        """Rows whose link is partitioned or whose receiver is down."""
        return self.plan.links_blocked(
            pass_index, rows["sender"], rows["receiver"]
        ) | ~live[rows["receiver"]]

    def _service_parked(self, pass_index: int, live, copies: list) -> None:
        """Store-and-resend for budget-exhausted batches: track each
        parked batch's blockage, relaunch the ones whose blockage has
        cleared as fresh flights with a fresh retry budget."""
        parked = self._parked
        if not parked.size:
            return
        blocked = self._blocked(pass_index, parked, live)
        relaunch = ~blocked & parked["undeliverable"]
        parked["undeliverable"] |= blocked
        if not relaunch.any():
            return
        healed = parked[relaunch]
        self._parked = parked[~relaunch]
        self._count("parked_resent", int(self._sizes(healed).sum()))
        rows = self._launch(
            healed["sender"], healed["receiver"], healed["lo"], healed["hi"]
        )
        self._untrack(self._walk(pass_index, rows, live, copies))

    def _compact(self) -> None:
        """Drop the store rows no flight, parked batch or delayed copy
        uses any more, once the store holds over twice the rows in use."""
        tables = (self._flights, self._parked, self._delayed)
        in_use = sum(int(self._sizes(t).sum()) for t in tables)
        if len(self._store) <= 2 * in_use + 4096:
            return
        edges = np.zeros(len(self._store) + 1, dtype=np.int64)
        for t in tables:
            np.add.at(edges, t["lo"], 1)
            np.add.at(edges, t["hi"], -1)
        keep = np.cumsum(edges[:-1]) > 0
        moved = np.cumsum(keep) - 1
        for t in tables:
            span = t["hi"] - t["lo"]
            t["lo"] = moved[t["lo"]]
            t["hi"] = t["lo"] + span
        self._store = self._store.take(keep)
