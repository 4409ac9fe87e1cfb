"""Sender-side reliable delivery for the concurrent runtime.

The pass-based engines get reliability from
:class:`repro.faults.transport.ReliableTransport`; the runtime needs
the same semantics — positive acks, capped exponential backoff, a
retry budget, abandonment bookkeeping (docs/PROTOCOL.md §13, §14) —
but driven by a clock instead of a pass counter.  This module is that
translation: a :class:`FlightTracker` lives on each
:class:`~repro.runtime.node.PeerNode` and tracks every batch the node
has launched until the matching :class:`~repro.p2p.messages.BatchAck`
arrives.

The knobs are the *same* :class:`~repro.faults.ReliabilityConfig` the
pass engines use; its pass-denominated timeouts are scaled onto the
runtime clock by ``pass_time`` (time units per pass-equivalent), so a
config tuned for the simulator behaves identically here.  A flight
still unacked after ``max_retries`` retransmissions is abandoned and
its updates counted as undeliverable mass — the runtime's quiescence
check then reports non-convergence instead of retrying forever,
mirroring the pass engines' graceful degradation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.transport import ReliabilityConfig
from repro.p2p.messages import BatchAck, MessageBatch

__all__ = ["AsyncFlight", "FlightTracker"]


@dataclass
class AsyncFlight:
    """One batch transfer awaiting acknowledgement (clock-timed).

    Attributes
    ----------
    flight_id:
        Transport-level transfer id (unique per sending node).
    batch:
        The payload under delivery.
    first_sent:
        Clock reading of the first transmission.
    attempts:
        Transmissions so far (1 = original send).
    next_retry:
        Clock reading at which an unacked flight times out and is
        retransmitted (or abandoned once over budget).
    """

    flight_id: int
    batch: MessageBatch
    first_sent: float
    attempts: int = 1
    next_retry: float = 0.0


class FlightTracker:
    """Per-sender flight table: launch, ack, retry, abandon.

    Parameters
    ----------
    config:
        The shared ack/retry/backoff parameters
        (:class:`~repro.faults.ReliabilityConfig`).
    pass_time:
        Time units equivalent to one pass — the scale factor applied
        to the config's pass-denominated timeouts.
    """

    def __init__(self, config: ReliabilityConfig, *, pass_time: float = 1.0) -> None:
        if pass_time <= 0:
            raise ValueError(f"pass_time must be > 0, got {pass_time}")
        self.config = config
        self.pass_time = float(pass_time)
        self._flights: Dict[int, AsyncFlight] = {}
        # ``(next_retry, flight_id)`` per unacked flight; acked ones' are
        # skipped when they surface.
        self._deadlines: List[Tuple[float, int]] = []
        self._next_fid = 0
        self.retries = 0
        self.abandoned_updates = 0
        self.abandoned_mass = 0.0
        # Per-receiver abandonment ledger, so a supervised restart can
        # forgive exactly the mass its re-publish heals (§15.4).
        self._abandoned_by_receiver: Dict[int, int] = {}
        self._abandoned_mass_by_receiver: Dict[int, float] = {}

    # ------------------------------------------------------------------
    @property
    def unacked_flights(self) -> int:
        return len(self._flights)

    @property
    def unacked_updates(self) -> int:
        """Updates in flights still awaiting acknowledgement."""
        return sum(len(f.batch) for f in self._flights.values())

    @property
    def undeliverable_updates(self) -> int:
        """Abandoned plus still-unacked updates (convergence blockers)."""
        return self.abandoned_updates + self.unacked_updates

    def _timeout(self, attempts: int) -> float:
        """Clock delay before the next retransmission of a flight that
        has been attempted ``attempts`` times (capped backoff)."""
        return self.config.retry_delay(attempts) * self.pass_time

    # ------------------------------------------------------------------
    def launch(self, batch: MessageBatch, now: float) -> AsyncFlight:
        """Register a freshly staged batch as a new flight."""
        flight = AsyncFlight(
            flight_id=self._next_fid,
            batch=batch,
            first_sent=now,
            attempts=1,
            next_retry=now + self._timeout(1),
        )
        self._next_fid += 1
        self._flights[flight.flight_id] = flight
        heapq.heappush(self._deadlines, (flight.next_retry, flight.flight_id))
        return flight

    def on_ack(self, ack: BatchAck) -> bool:
        """Clear the acknowledged flight; False if it was unknown
        (a duplicate ack for an already-cleared flight)."""
        return self._flights.pop(ack.flight_id, None) is not None

    def due(self, now: float) -> List[AsyncFlight]:
        """Flights whose ack timeout has expired at ``now``, in
        ascending flight id.

        Flights still within their retry budget are returned for
        retransmission with ``attempts`` incremented and their next
        timeout re-armed; flights over budget are abandoned (removed,
        their updates counted as undeliverable) and *not* returned.
        """
        deadlines = self._deadlines
        expired: List[int] = []
        while deadlines and deadlines[0][0] <= now:
            fid = heapq.heappop(deadlines)[1]
            if fid in self._flights:
                expired.append(fid)
        out: List[AsyncFlight] = []
        for fid in sorted(expired):
            flight = self._flights[fid]
            if flight.attempts > self.config.max_retries:
                receiver = flight.batch.receiver_peer
                mass = sum(abs(u.value) for u in flight.batch)
                self.abandoned_updates += len(flight.batch)
                self.abandoned_mass += mass
                self._abandoned_by_receiver[receiver] = (
                    self._abandoned_by_receiver.get(receiver, 0)
                    + len(flight.batch)
                )
                self._abandoned_mass_by_receiver[receiver] = (
                    self._abandoned_mass_by_receiver.get(receiver, 0.0) + mass
                )
                del self._flights[fid]
                continue
            flight.attempts += 1
            flight.next_retry = now + self._timeout(flight.attempts)
            heapq.heappush(deadlines, (flight.next_retry, fid))
            self.retries += 1
            out.append(flight)
        return out

    def next_due(self) -> Optional[float]:
        """Earliest retry/abandon deadline among unacked flights."""
        deadlines = self._deadlines
        while deadlines and deadlines[0][1] not in self._flights:
            heapq.heappop(deadlines)
        return deadlines[0][0] if deadlines else None

    # ------------------------------------------------------------------
    # Crash-recovery hooks (docs/PROTOCOL.md §15)
    # ------------------------------------------------------------------
    def wipe(self) -> int:
        """Crash-with-state-loss: drop every in-flight batch without
        abandonment accounting (the flights died *with* the sender;
        the restarted peer re-publishes instead).  Returns the number
        of updates destroyed, for state-loss bookkeeping."""
        lost = sum(len(f.batch) for f in self._flights.values())
        self._flights.clear()
        self._deadlines.clear()
        return lost

    def forgive(self, receiver: int) -> int:
        """Clear the abandonment ledger toward one receiver.

        Called after anti-entropy re-publish toward a restarted peer:
        the re-publish stages the current value of every edge into the
        receiver at ≥ the abandoned versions, so the abandoned updates
        are superseded, not lost — they stop blocking convergence.
        Returns the number of updates forgiven.
        """
        count = self._abandoned_by_receiver.pop(receiver, 0)
        mass = self._abandoned_mass_by_receiver.pop(receiver, 0.0)
        self.abandoned_updates -= count
        self.abandoned_mass -= mass
        return count
