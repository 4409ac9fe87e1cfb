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
still unacked after ``max_retries`` retransmissions is abandoned: the
tracker keeps the spent flight, per receiver, and its updates count as
undeliverable until a supervised restart wipes or forgives it — the
runtime's quiescence check then reports non-convergence instead of
retrying forever, mirroring the pass engines' graceful degradation.
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
    attempts:
        Transmissions so far (1 = original send).
    next_retry:
        Clock reading at which an unacked flight times out and is
        retransmitted (or abandoned once over budget).
    """

    flight_id: int
    batch: MessageBatch
    attempts: int = 1
    next_retry: float = 0.0


class FlightTracker:
    """Per-sender flight table: launch, ack, retry, abandon.

    Unacked flights live in a table by flight id; flights that spent
    their retry budget move to a table by receiver.  Those spent
    flights are the only record of abandoned updates:
    :attr:`abandoned_updates` and :attr:`abandoned_mass` are read off
    them, :meth:`forgive` pops one receiver's, and :meth:`wipe` drops
    them all with the unacked ones.

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
        # Spent flights by receiver, so a supervised restart can forgive
        # exactly the ones its re-publish heals (§15.4).
        self._spent: Dict[int, List[AsyncFlight]] = {}

    # ------------------------------------------------------------------
    @property
    def unacked_flights(self) -> int:
        return len(self._flights)

    @property
    def unacked_updates(self) -> int:
        """Updates in flights still awaiting acknowledgement."""
        return sum(len(f.batch) for f in self._flights.values())

    @property
    def abandoned_updates(self) -> int:
        """Updates in flights that spent their retry budget."""
        return sum(len(f.batch) for f in self._spent_flights())

    @property
    def abandoned_mass(self) -> float:
        """Total ``|value|`` of the abandoned updates."""
        spent = self._spent_flights()
        return sum((abs(u.value) for f in spent for u in f.batch), 0.0)

    @property
    def undeliverable_updates(self) -> int:
        """Abandoned plus still-unacked updates (convergence blockers)."""
        return self.abandoned_updates + self.unacked_updates

    def _spent_flights(self):
        """Every spent flight, receiver by receiver."""
        return (f for flights in self._spent.values() for f in flights)

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
        timeout re-armed; flights over budget are abandoned (moved to
        the spent flights, their updates counted as undeliverable) and
        *not* returned.
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
                self._spent.setdefault(receiver, []).append(flight)
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
        """Crash-with-state-loss: drop every unacked and every spent
        flight (they died *with* the sender; the restarted peer's
        re-publish supersedes them).  Returns the number of updates
        destroyed, for state-loss bookkeeping."""
        lost = self.unacked_updates + self.abandoned_updates
        self._flights.clear()
        self._deadlines.clear()
        self._spent.clear()
        return lost

    def forgive(self, receiver: int) -> int:
        """Drop the spent flights toward one receiver.

        Called after anti-entropy re-publish toward a restarted peer:
        the re-publish stages the current value of every edge into the
        receiver at ≥ the abandoned versions, so the abandoned updates
        are superseded, not lost — they stop blocking convergence.
        Returns the number of updates forgiven.
        """
        return sum(len(f.batch) for f in self._spent.pop(receiver, ()))
