"""Deterministic fault injection plans (the chaos side of §2.3, §4.3).

The paper's central robustness claim is that chaotic pagerank iteration
tolerates the messiness of a real P2P network, yet the transport both
engines assumed before this module was perfectly lossless and ordered:
churn only masked *availability*, and §3.1 store-and-resend never
actually lost a message.  A :class:`FaultPlan` closes that gap — it is
a seeded oracle the transport layer consults for every send attempt,
injecting:

* **message drops** — the batch vanishes; no ack ever arrives;
* **duplication** — the batch is delivered twice (the receiver's
  version dedup must make the second copy a no-op);
* **delay / reorder** — delivery is postponed a bounded number of
  passes, so later sends can overtake earlier ones;
* **peer crashes with state loss** — distinct from a graceful §3.1
  departure: the crashed peer's in-flight outbox, deferred queues and
  retransmit buffers are wiped, not preserved;
* **transient link partitions** — a (peer, peer) pair, or one peer
  against everyone (a *black hole*), exchanges nothing for a spell.

Every decision is drawn from one seeded generator in deterministic
call order, so a run under a given plan — and the Table-1-style
convergence tables built from it (``repro faults``) — reproduces
exactly.  A plan is therefore *stateful*: construct a fresh one (same
seed) per run, never share one instance across runs.

Asynchronous-iteration theory (Kollias et al.; Zhao et al., PAPERS.md)
says convergence survives bounded staleness and randomized unreliable
schedules; the tests under ``tests/faults/`` demonstrate it
experimentally against this plan plus the reliable-delivery layer in
:mod:`repro.faults.transport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._util import as_generator, check_probability
from repro._util.rng import SeedLike

__all__ = ["Partition", "FaultSpec", "SendFate", "AttemptFates", "FaultPlan"]


@dataclass(frozen=True)
class Partition:
    """A link (or black-hole) partition spell.

    Blocks every send between ``peer_a`` and ``peer_b`` — in both
    directions — while ``start_pass <= t < end_pass``.  ``peer_b=None``
    black-holes ``peer_a`` against *every* counterpart (the scenario
    the residual-stagnation detector exists for).  ``end_pass=None``
    means the partition never heals.
    """

    peer_a: int
    peer_b: Optional[int] = None
    start_pass: int = 0
    end_pass: Optional[int] = None

    def __post_init__(self) -> None:
        if self.peer_a < 0:
            raise ValueError(f"peer_a must be >= 0, got {self.peer_a}")
        if self.peer_b is not None and self.peer_b == self.peer_a:
            raise ValueError("peer_b must differ from peer_a")
        if self.start_pass < 0:
            raise ValueError(f"start_pass must be >= 0, got {self.start_pass}")
        if self.end_pass is not None and self.end_pass <= self.start_pass:
            raise ValueError("end_pass must be > start_pass")

    def active(self, pass_index: int) -> bool:
        """True while the spell covers ``pass_index``."""
        if pass_index < self.start_pass:
            return False
        return self.end_pass is None or pass_index < self.end_pass

    def blocks(self, pass_index: int, sender: int, receiver: int) -> bool:
        """True if this spell blocks a ``sender -> receiver`` transfer."""
        if not self.active(pass_index):
            return False
        if self.peer_b is None:
            return self.peer_a in (sender, receiver)
        return {sender, receiver} == {self.peer_a, self.peer_b}


@dataclass(frozen=True)
class FaultSpec:
    """What to inject and how hard (all rates are per send attempt).

    Attributes
    ----------
    drop_rate:
        Probability a sent batch silently vanishes.
    duplicate_rate:
        Probability a delivered batch arrives twice.
    delay_rate:
        Probability a delivered batch is postponed; the delay is
        uniform on ``1 .. max_delay_passes``, which reorders it behind
        everything sent meanwhile.
    max_delay_passes:
        Upper bound on injected delivery delay.
    ack_drop_rate:
        Probability the *acknowledgement* of a delivered batch is lost
        (forcing a redundant retransmit the receiver must suppress).
        ``None`` (default) mirrors ``drop_rate`` — data and ack travel
        the same lossy links.
    crashes:
        ``(pass_index, peer_id)`` pairs or ``(pass_index, peer_id,
        down_passes)`` triples: at the start of that pass the peer
        crashes, losing volatile state (outbox, deferred queue,
        retransmit buffer).  A pair stays down for the spec-wide
        ``crash_down_passes``; a triple carries its own down spell
        (restart-after semantics, docs/PROTOCOL.md §15.4).  Entries
        normalise to triples, so ``spec.crashes`` always yields
        ``(pass, peer, down)``.
    crash_down_passes:
        Default passes a crashed peer stays unavailable before
        rebooting (used by 2-tuple ``crashes`` entries).
    partitions:
        :class:`Partition` spells, checked on every send attempt.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay_passes: int = 3
    ack_drop_rate: Optional[float] = None
    crashes: Tuple[Tuple[int, ...], ...] = ()
    crash_down_passes: int = 2
    partitions: Tuple[Partition, ...] = ()

    def __post_init__(self) -> None:
        check_probability("drop_rate", self.drop_rate)
        check_probability("duplicate_rate", self.duplicate_rate)
        check_probability("delay_rate", self.delay_rate)
        if self.ack_drop_rate is not None:
            check_probability("ack_drop_rate", self.ack_drop_rate)
        if self.max_delay_passes < 1:
            raise ValueError(
                f"max_delay_passes must be >= 1, got {self.max_delay_passes}"
            )
        if self.crash_down_passes < 1:
            raise ValueError(
                f"crash_down_passes must be >= 1, got {self.crash_down_passes}"
            )
        normalised = []
        for entry in self.crashes:
            if len(entry) == 2:
                t, p = entry
                down = self.crash_down_passes
            elif len(entry) == 3:
                t, p, down = entry
            else:
                raise ValueError(
                    f"crash entries must be (pass, peer[, down]), got {entry!r}"
                )
            if t < 0 or p < 0:
                raise ValueError(f"crash entries must be non-negative, got ({t}, {p})")
            if down < 1:
                raise ValueError(
                    f"crash down_passes must be >= 1, got {down} for peer {p}"
                )
            normalised.append((int(t), int(p), int(down)))
        # Normalise to tuples so specs hash/compare and cannot be
        # mutated after plans were built from them.
        object.__setattr__(self, "crashes", tuple(normalised))
        object.__setattr__(self, "partitions", tuple(self.partitions))

    @property
    def effective_ack_drop_rate(self) -> float:
        return self.drop_rate if self.ack_drop_rate is None else self.ack_drop_rate

    @property
    def injects_anything(self) -> bool:
        """False for the all-zero spec (useful for no-op assertions)."""
        return bool(
            self.drop_rate
            or self.duplicate_rate
            or self.delay_rate
            or self.crashes
            or self.partitions
        )


@dataclass(frozen=True)
class SendFate:
    """One send attempt's injected outcome.

    ``dropped`` wins over everything; otherwise the batch arrives after
    ``delay`` passes (0 = this pass) and, if ``duplicated``, a second
    copy arrives after ``duplicate_delay`` passes.
    """

    dropped: bool = False
    duplicated: bool = False
    delay: int = 0
    duplicate_delay: int = 0


_CLEAN = SendFate()


@dataclass(frozen=True)
class AttemptFates:
    """The injected outcomes of a run of send attempts, one entry each.

    ``dropped``, ``duplicated``, ``delay`` and ``duplicate_delay`` are
    the :class:`SendFate` fields as arrays.  ``acks`` counts the
    acknowledgements an attempt's immediately delivered copies sent
    (0–2) and ``ack_drops`` how many of them were lost.
    """

    dropped: np.ndarray
    duplicated: np.ndarray
    delay: np.ndarray
    duplicate_delay: np.ndarray
    acks: np.ndarray
    ack_drops: np.ndarray

    @property
    def acked(self) -> np.ndarray:
        """Attempts one of whose acks got through."""
        return self.acks > self.ack_drops


class FaultPlan:
    """Seeded fault oracle: the transport asks, the plan answers.

    Parameters
    ----------
    spec:
        The :class:`FaultSpec` describing what to inject.
    seed:
        Deterministic seed; identical (spec, seed) pairs answer every
        query stream identically.
    """

    def __init__(self, spec: Optional[FaultSpec] = None, *, seed: SeedLike = None) -> None:
        self.spec = spec if spec is not None else FaultSpec()
        self._rng = as_generator(seed)
        self._crashes_by_pass: Dict[int, List[Tuple[int, int]]] = {}
        for t, p, down in self.spec.crashes:
            self._crashes_by_pass.setdefault(t, []).append((p, down))

    # ------------------------------------------------------------------
    # Scheduled faults
    # ------------------------------------------------------------------
    def crashes_at(self, pass_index: int) -> Tuple[int, ...]:
        """Peers that crash at the start of ``pass_index``."""
        return tuple(p for p, _ in self._crashes_by_pass.get(pass_index, ()))

    def down_passes_for(self, pass_index: int, peer: int) -> int:
        """The down spell of a crash scheduled at ``(pass_index, peer)``
        (falls back to the spec-wide default for unknown queries)."""
        for p, down in self._crashes_by_pass.get(pass_index, ()):
            if p == peer:
                return down
        return self.spec.crash_down_passes

    def crash_events(self) -> Tuple[Tuple[int, int, int], ...]:
        """The full crash schedule as sorted ``(pass, peer, down)``
        triples — the supervisor's restart-after timeline
        (docs/PROTOCOL.md §15.4)."""
        return tuple(sorted(self.spec.crashes))

    def link_blocked(self, pass_index: int, sender: int, receiver: int) -> bool:
        """True if a partition spell blocks this transfer right now."""
        return any(
            p.blocks(pass_index, sender, receiver) for p in self.spec.partitions
        )

    def links_blocked(
        self, pass_index: int, senders: np.ndarray, receivers: np.ndarray
    ) -> np.ndarray:
        """:meth:`link_blocked` for many transfers at once."""
        blocked = np.zeros(senders.size, dtype=bool)
        for p in self.partitions_active(pass_index):
            if p.peer_b is None:
                blocked |= (senders == p.peer_a) | (receivers == p.peer_a)
            else:
                blocked |= ((senders == p.peer_a) & (receivers == p.peer_b)) | (
                    (senders == p.peer_b) & (receivers == p.peer_a)
                )
        return blocked

    def partitions_active(self, pass_index: int) -> Tuple[Partition, ...]:
        """The partition spells covering ``pass_index``."""
        return tuple(p for p in self.spec.partitions if p.active(pass_index))

    # ------------------------------------------------------------------
    # Randomised faults
    # ------------------------------------------------------------------
    def roll_send(self, pass_index: int, sender: int, receiver: int) -> SendFate:
        """Draw the fate of one batch send attempt.

        Partition checks are the caller's job (:meth:`link_blocked`);
        this draws only the randomised drop/duplicate/delay outcome.
        """
        s = self.spec
        if not (s.drop_rate or s.duplicate_rate or s.delay_rate):
            return _CLEAN
        if s.drop_rate and self._rng.random() < s.drop_rate:
            return SendFate(dropped=True)
        duplicated = bool(s.duplicate_rate) and self._rng.random() < s.duplicate_rate
        delay = 0
        dup_delay = 0
        if s.delay_rate:
            if self._rng.random() < s.delay_rate:
                delay = 1 + int(self._rng.integers(s.max_delay_passes))
            if duplicated and self._rng.random() < s.delay_rate:
                dup_delay = 1 + int(self._rng.integers(s.max_delay_passes))
        return SendFate(
            dropped=False,
            duplicated=duplicated,
            delay=delay,
            duplicate_delay=dup_delay,
        )

    def roll_ack_drop(self, pass_index: int) -> bool:
        """Draw whether a delivered batch's acknowledgement is lost."""
        rate = self.spec.effective_ack_drop_rate
        return bool(rate) and self._rng.random() < rate

    def roll_attempts(
        self,
        pass_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        receiver_live: np.ndarray,
    ) -> AttemptFates:
        """Draw the fates of a run of send attempts and of their acks.

        Attempt ``i`` sends a still-unacknowledged flight from
        ``senders[i]`` to ``receivers[i]`` over an open link;
        ``receiver_live[i]`` says whether the receiver is up.  The
        generator is consumed exactly as if, attempt by attempt,
        :meth:`roll_send` were called and then :meth:`roll_ack_drop`
        once for each copy delivered at once (``delay == 0``) to a live
        receiver while no earlier copy of the attempt was acknowledged,
        so the outcomes and the generator's next draw match that scalar
        order.  Drop and ack-drop draws come from ``random(n)`` buffers
        sized so that no drawn number goes unused; duplicate and delay
        draws are conditional, so specs with those rates make the
        scalar calls.
        """
        n = int(receiver_live.size)
        fates = AttemptFates(
            *(np.zeros(n, dtype=t) for t in (bool, bool) + (np.int64,) * 4)
        )
        s = self.spec
        if s.duplicate_rate or s.delay_rate:
            for i, (sender, receiver, live) in enumerate(
                zip(senders.tolist(), receivers.tolist(), receiver_live.tolist())
            ):
                fate = self.roll_send(pass_index, sender, receiver)
                fates.dropped[i], fates.duplicated[i] = fate.dropped, fate.duplicated
                fates.delay[i] = fate.delay
                fates.duplicate_delay[i] = fate.duplicate_delay
                if fate.dropped or not live:
                    continue
                for delay in (fate.delay, fate.duplicate_delay)[: 1 + fate.duplicated]:
                    if delay == 0 and fates.acks[i] == fates.ack_drops[i]:
                        fates.acks[i] += 1
                        fates.ack_drops[i] += self.roll_ack_drop(pass_index)
            return fates
        drop, ack = s.drop_rate, s.effective_ack_drop_rate
        lost = np.zeros(n, dtype=bool)
        if drop and ack:
            # Each attempt draws its fate, then (delivered to a live
            # receiver) its ack.  A refill covers one draw per attempt
            # still to walk plus the ack owed, all of which will be used.
            buf: List[float] = []
            k = 0
            for i, live in enumerate(receiver_live.tolist()):
                if k == len(buf):
                    buf, k = self._rng.random(n - i).tolist(), 0
                k += 1
                if buf[k - 1] < drop:
                    fates.dropped[i] = True
                elif live:
                    if k == len(buf):
                        buf, k = self._rng.random(n - i).tolist(), 0
                    lost[i] = buf[k] < ack
                    k += 1
        elif drop:
            fates.dropped[:] = self._rng.random(n) < drop
        elif ack:
            lost[receiver_live] = self._rng.random(int(receiver_live.sum())) < ack
        sent = ~fates.dropped & receiver_live
        fates.acks[:] = sent
        fates.ack_drops[:] = sent & lost
        return fates

    def edge_delivery_mask(self, pass_index: int, n_candidates: int) -> np.ndarray:
        """Vectorized-engine hook: which of ``n_candidates`` edge
        deliveries survive this pass (True = delivered).

        The vectorized engine models the reliable layer's *outcome*
        rather than its mechanism: a dropped edge delivery is parked in
        the store-and-resend state and retried next pass — exactly the
        eventual-delivery guarantee the protocol simulator implements
        with acks and backoff.  Crash and partition injection stay
        simulator-only (they are per-peer state machines, not per-edge
        masks).
        """
        if n_candidates == 0 or not self.spec.drop_rate:
            return np.ones(n_candidates, dtype=bool)
        return self._rng.random(n_candidates) >= self.spec.drop_rate
