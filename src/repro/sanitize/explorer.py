"""Seeded interleaving exploration: determinism as a checked property.

The deterministic scheduler's reproducibility claim (docs/PROTOCOL.md
§14) is that final durable state is a function of the *scenario*, not
of the incidental total order the transport breaks ties in: envelopes
due at the same virtual time are delivered in submission-sequence
order, but the §2.3 protocol — version-deduplicated folding, coalesced
recomputes over sorted worklists — must produce bitwise-identical
durable state under any legal reordering of those ties.

This module turns that claim into a first-class check.  A
:func:`perturbation` is a deterministic bijective mix of the
submission sequence number; handing it to
:class:`~repro.runtime.transport.InMemoryTransport` as its ``tiebreak``
permutes the delivery order of same-time envelopes (and nothing else —
the delivery *times* are untouched, so every perturbed schedule is a
legal one).  :func:`explore_schedules` runs a baseline plus K perturbed
schedules of the same scenario and compares canonical digests of every
peer's durable state; a divergence becomes a ``SAN002`` finding
(:data:`repro.sanitize.hb.SAN002`).
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.lint.findings import Finding
from repro.obs import get_registry

from repro.sanitize.hb import SAN002, _TRACKED_PEER_FIELDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runtime.runtime import AsyncPeerRuntime

__all__ = [
    "perturbation",
    "durable_digest",
    "ExplorationReport",
    "explore_schedules",
]

_MASK = (1 << 64) - 1


def perturbation(seed: int) -> Callable[[int], int]:
    """A deterministic bijective tie-break key for one schedule.

    SplitMix64-style mixing: each stage is a bijection mod 2^64, so
    distinct sequence numbers map to distinct keys — the perturbed
    delivery order is still a total order, just a different one.
    ``seed`` selects the permutation; the same seed always yields the
    same schedule.
    """

    offset = (0x9E3779B97F4A7C15 * (seed + 1)) & _MASK

    def key(seq: int) -> int:
        z = (seq + offset) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    return key


def durable_digest(runtime: "AsyncPeerRuntime") -> str:
    """Canonical SHA-256 over every peer's durable state.

    Floats are rendered with ``float.hex`` (exact, bitwise), keys in
    sorted order — equal digests mean bitwise-equal durable state.
    """
    h = hashlib.sha256()
    for node in runtime.nodes:
        peer = node.peer
        h.update(f"peer={peer.peer_id}\n".encode("ascii"))
        for attr in _TRACKED_PEER_FIELDS:
            mapping = getattr(peer, attr)
            h.update(f"field={attr}\n".encode("ascii"))
            for key in sorted(mapping):
                value = mapping[key]
                rendered = value.hex() if isinstance(value, float) else repr(value)
                h.update(f"{key}={rendered}\n".encode("ascii"))
    return h.hexdigest()


@dataclass(frozen=True)
class ExplorationReport:
    """Outcome of one schedule exploration.

    Attributes
    ----------
    baseline_digest:
        Durable-state digest of the unperturbed run.
    schedule_digests:
        One digest per perturbed schedule, in seed order.
    findings:
        ``SAN002`` findings, one per diverging schedule (empty on a
        deterministic scenario).
    schedules:
        Number of perturbed schedules executed.
    digests_compared:
        False when the digest comparison was suppressed (scenario with
        an order-coupled fault oracle); the digests are still recorded.
    """

    baseline_digest: str
    schedule_digests: List[str]
    findings: List[Finding]
    schedules: int
    digests_compared: bool = True

    @property
    def deterministic(self) -> bool:
        return not self.findings


class _ExplorerInstruments:
    """``sanitizer.*`` metric handles (docs/OBSERVABILITY.md §11)."""

    __slots__ = ("schedules", "divergence")

    def __init__(self, reg) -> None:  # type: ignore[no-untyped-def]
        self.schedules = reg.counter(
            "sanitizer.schedules", unit="runs",
            description="perturbed schedules executed by the "
            "interleaving explorer",
        )
        self.divergence = reg.counter(
            "sanitizer.determinism_violations", unit="findings",
            description="schedules whose durable state diverged from "
            "the baseline (SAN002)",
        )


RuntimeFactory = Callable[
    [Optional[Callable[[int], int]]], "AsyncPeerRuntime"
]


def explore_schedules(
    factory: RuntimeFactory,
    *,
    schedules: int = 3,
    seed: int = 0,
    max_rounds: int = 1_000_000,
    compare_digests: bool = True,
    registry=None,  # type: ignore[no-untyped-def]
) -> ExplorationReport:
    """Run a baseline plus ``schedules`` perturbed schedules and
    compare durable state bitwise.

    ``factory(tiebreak)`` must build a *fresh* runtime for the same
    scenario each call (runtime instances are single-shot), passing
    ``tiebreak`` through to its in-memory transport; ``None`` selects
    the unperturbed submission order.

    ``compare_digests=False`` still executes every schedule (any armed
    race detectors keep journaling) but suppresses ``SAN002``: the
    digest comparison is only sound when the scenario's randomness is
    keyed to the *event*, not the event order.  A
    :class:`~repro.faults.plan.FaultPlan` draws drop/duplicate fates
    from one sequential stream, so under a perturbed tie-break the same
    draws land on different envelopes and durable state legitimately
    differs — a property of the fault oracle's sampling, not an
    order-sensitivity bug in the protocol's folding.
    """
    if schedules < 1:
        raise ValueError(f"schedules must be >= 1, got {schedules}")
    instruments = _ExplorerInstruments(
        registry if registry is not None else get_registry()
    )
    baseline_runtime = factory(None)
    asyncio.run(baseline_runtime.run(max_rounds=max_rounds))
    baseline = durable_digest(baseline_runtime)
    digests: List[str] = []
    findings: List[Finding] = []
    for index in range(schedules):
        runtime = factory(perturbation(seed + index))
        asyncio.run(runtime.run(max_rounds=max_rounds))
        digest = durable_digest(runtime)
        digests.append(digest)
        instruments.schedules.inc()
        if compare_digests and digest != baseline:
            findings.append(
                Finding(
                    rule=SAN002.id,
                    path=f"runtime://schedule/{seed + index}",
                    line=0,
                    message=(
                        f"durable state diverged under perturbed "
                        f"tie-break seed {seed + index}: digest "
                        f"{digest[:12]} != baseline {baseline[:12]}"
                    ),
                    severity=SAN002.severity,
                    hint=SAN002.hint,
                )
            )
    instruments.divergence.inc(len(findings))
    return ExplorationReport(
        baseline_digest=baseline,
        schedule_digests=digests,
        findings=findings,
        schedules=schedules,
        digests_compared=compare_digests,
    )
