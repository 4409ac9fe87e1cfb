"""Chaos soak harness: randomized crash storms with invariant probes.

The recovery subsystem's correctness claim is behavioural: under *any*
seeded storm of crashes, restarts, partitions and loss, the supervised
runtime must keep its invariants — every rank finite and positive, no
document abandoned, total mass inside a sane band — and still converge
to the reference ranking once the chaos subsides (the asynchronous-
iteration guarantee of Kollias et al., PAPERS.md, with the paper's own
§3.1 churn assumption as the failure model).  :func:`run_soak`
executes one such seeded schedule end to end: it draws a randomized
:class:`~repro.faults.plan.FaultPlan` from the soak seed, drives a
recovery-supervised :class:`~repro.runtime.runtime.AsyncPeerRuntime`
with a continuous invariant probe attached, checks the final state
against a fault-free pass-based reference, and reports every violation
as a structured :class:`SoakViolation` — streamed as
``recovery.incident`` JSONL events through :mod:`repro.obs` when a
trace sink is given (docs/OBSERVABILITY.md §10).

``repro soak`` is the CLI face; ``make soak-smoke`` and the CI
``soak-smoke`` job run a short-budget schedule over three seeds.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro._util import as_generator
from repro._util.rng import SeedLike
from repro.faults.plan import FaultPlan, FaultSpec, Partition
from repro.recovery.supervisor import RecoveryConfig

__all__ = ["SoakConfig", "SoakViolation", "SoakReport", "build_soak_plan", "run_soak"]


@dataclass(frozen=True)
class SoakConfig:
    """One chaos soak schedule (fully determined by its fields + seed).

    Attributes
    ----------
    docs, peers:
        Problem size.
    epsilon:
        Publish gate / convergence threshold.
    drop_rate:
        Background message loss while the storm rages.
    crashes:
        Crash events drawn into the schedule (random pass, peer, and
        down spell, from the soak seed).
    partitions:
        Transient link partitions drawn into the schedule.
    down_passes_max:
        Upper bound on a drawn crash's down spell (lower bound 2).
    max_rounds:
        Scheduler round budget.
    check_every:
        Rounds between continuous invariant probes.
    mass_tolerance:
        Allowed relative gap between final total mass and the
        reference's (a conservation check — mass lost to a crash that
        recovery failed to heal shows up here).
    rank_tolerance:
        Allowed p99 relative rank error vs the fault-free reference.
    mass_band:
        ``(lo, hi)`` multiples of the document count the in-flight
        total mass must stay inside at every probe.
    heartbeat_timeout_passes, snapshot_interval:
        Forwarded into :class:`~repro.recovery.supervisor.RecoveryConfig`.
    """

    docs: int = 120
    peers: int = 6
    epsilon: float = 1e-4
    drop_rate: float = 0.05
    crashes: int = 2
    partitions: int = 0
    down_passes_max: int = 5
    max_rounds: int = 20_000
    check_every: int = 8
    mass_tolerance: float = 0.02
    rank_tolerance: float = 5e-3
    mass_band: Tuple[float, float] = (0.2, 5.0)
    heartbeat_timeout_passes: float = 2.0
    snapshot_interval: int = 256

    def __post_init__(self) -> None:
        if self.docs < 2:
            raise ValueError(f"docs must be >= 2, got {self.docs}")
        if self.peers < 2:
            raise ValueError(f"peers must be >= 2, got {self.peers}")
        if self.crashes < 0 or self.partitions < 0:
            raise ValueError("crashes/partitions must be >= 0")
        if self.down_passes_max < 2:
            raise ValueError(
                f"down_passes_max must be >= 2, got {self.down_passes_max}"
            )
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")


@dataclass(frozen=True)
class SoakViolation:
    """One invariant breach observed during a soak run."""

    kind: str
    round: int
    detail: str


@dataclass
class SoakReport:
    """Outcome of one seeded soak schedule."""

    seed: int
    converged: bool
    quiesced: bool
    rounds: int
    crashes: int
    restarts: int
    abandoned_updates: int
    mass_error: float
    p99_error: float
    violations: List[SoakViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the schedule completed with zero violations."""
        return not self.violations


def build_soak_plan(config: SoakConfig, seed: SeedLike) -> FaultPlan:
    """Draw one randomized (but seeded) fault schedule.

    Crash passes land early (1–7) so restarts interleave with active
    computation; down spells and victims are drawn uniformly;
    partitions are transient two-sided spells that always heal.
    """
    rng = as_generator(seed)
    crashes = tuple(
        (
            1 + int(rng.integers(7)),
            int(rng.integers(config.peers)),
            2 + int(rng.integers(config.down_passes_max - 1)),
        )
        for _ in range(config.crashes)
    )
    partitions = []
    for _ in range(config.partitions):
        a = int(rng.integers(config.peers))
        b = int(rng.integers(config.peers - 1))
        if b >= a:
            b += 1
        start = 1 + int(rng.integers(5))
        partitions.append(
            Partition(
                peer_a=a,
                peer_b=b,
                start_pass=start,
                end_pass=start + 2 + int(rng.integers(4)),
            )
        )
    spec = FaultSpec(
        drop_rate=config.drop_rate,
        crashes=crashes,
        partitions=tuple(partitions),
    )
    return FaultPlan(spec, seed=rng)


def run_soak(
    config: SoakConfig,
    *,
    seed: int = 0,
    trace=None,
) -> SoakReport:
    """Execute one seeded chaos schedule under full recovery supervision.

    ``trace`` is an optional :class:`repro.obs.TraceSink`; every
    violation streams as a ``recovery.incident`` event and the run
    summary as ``recovery.soak``.
    """
    # Imported here: this module is imported by repro.recovery's
    # package init, which repro.runtime pulls in for journals.
    from repro.scenario import Scenario, build

    # The fault spec and plan share one stream (seed + 2), so the plan
    # goes to the runtime as it is; the runtime draws from seed + 3.
    scenario = Scenario(
        config.docs, config.peers, "runtime", config.epsilon, seed=seed, runtime_offset=3
    )
    built = build(
        scenario,
        faults=build_soak_plan(config, seed + 2),
        recovery=RecoveryConfig(
            heartbeat_timeout_passes=config.heartbeat_timeout_passes,
            snapshot_interval=config.snapshot_interval,
            verify_replay_on_crash=True,
        ),
    )
    runtime = built.engine
    violations: List[SoakViolation] = []

    def record(kind: str, round_index: int, detail: str) -> None:
        violation = SoakViolation(kind=kind, round=round_index, detail=detail)
        violations.append(violation)
        sup = runtime._supervisor
        if sup is not None:
            sup.instruments.violations.inc()
        if trace is not None:
            trace.event(
                "recovery.incident",
                seed=seed,
                kind=kind,
                round=round_index,
                detail=detail,
            )

    lo, hi = config.mass_band

    def probe(rounds: int, rt) -> None:
        if rounds % config.check_every:
            return
        total = 0.0
        for node in rt.nodes:
            for doc, value in node.peer.rank.items():
                if not math.isfinite(value):
                    record(
                        "rank_not_finite", rounds,
                        f"doc {doc} on peer {node.peer.peer_id} is {value!r}",
                    )
                    return
                if value <= 0.0:
                    record(
                        "rank_not_positive", rounds,
                        f"doc {doc} on peer {node.peer.peer_id} is {value!r}",
                    )
                    return
                total += value
        if not lo * config.docs <= total <= hi * config.docs:
            record(
                "mass_band", rounds,
                f"total mass {total:.6g} outside "
                f"[{lo * config.docs:.6g}, {hi * config.docs:.6g}]",
            )

    report = asyncio.run(runtime.run(max_rounds=config.max_rounds, round_hook=probe))

    # Ownership partition: every document held by exactly one peer.
    owned: dict = {}
    for node in runtime.nodes:
        for doc in node.peer.documents:
            doc = int(doc)
            if doc in owned:
                record(
                    "document_double_owned", report.rounds,
                    f"doc {doc} on peers {owned[doc]} and {node.peer.peer_id}",
                )
            owned[doc] = node.peer.peer_id
    missing = config.docs - len(owned)
    if missing:
        record(
            "document_abandoned", report.rounds,
            f"{missing} documents have no owning peer",
        )

    if not report.converged:
        record(
            "not_converged", report.rounds,
            f"quiesced={report.quiesced} "
            f"abandoned={report.abandoned_updates} "
            f"staleness={report.max_staleness:.3g}",
        )

    # Reference: the same problem, fault-free, pass-based.
    reference = build(replace(scenario, engine="simulator"), reuse=built).solve()
    ref_ranks = reference.ranks
    rel = np.abs(report.ranks - ref_ranks) / np.maximum(np.abs(ref_ranks), 1e-12)
    p99 = float(np.percentile(rel, 99))
    if p99 > config.rank_tolerance:
        record(
            "rank_divergence", report.rounds,
            f"p99 relative error {p99:.3g} > {config.rank_tolerance:.3g}",
        )
    ref_mass = float(ref_ranks.sum())
    mass_error = abs(float(report.ranks.sum()) - ref_mass) / ref_mass
    if mass_error > config.mass_tolerance:
        record(
            "mass_conservation", report.rounds,
            f"relative mass gap {mass_error:.3g} > {config.mass_tolerance:.3g}",
        )

    soak = SoakReport(
        seed=seed,
        converged=report.converged,
        quiesced=report.quiesced,
        rounds=report.rounds,
        crashes=report.crashes,
        restarts=report.restarts,
        abandoned_updates=report.abandoned_updates,
        mass_error=mass_error,
        p99_error=p99,
        violations=violations,
    )
    if trace is not None:
        trace.event(
            "recovery.soak",
            seed=seed,
            ok=soak.ok,
            converged=soak.converged,
            rounds=soak.rounds,
            crashes=soak.crashes,
            restarts=soak.restarts,
            violations=len(violations),
            mass_error=mass_error,
            p99_error=p99,
        )
    return soak
