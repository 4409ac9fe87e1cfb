"""`repro faults`: convergence-under-faults sweep (Table-1 style).

The paper's Table 1 reports passes-to-convergence as peer availability
degrades; this experiment asks the analogous robustness question for
the *wire*: how much does convergence cost as message loss climbs,
with duplication, delivery delay and two mid-run peer crashes thrown
in?  Each row runs the protocol-level simulator over the same seeded
graph and placement with a fresh :class:`~repro.faults.plan.FaultPlan`
at one loss rate, and scores the result against the centralized
reference solution by relative L1 error.

Everything is seeded: the same ``seed`` regenerates the same table,
byte for byte — the property the regression tests pin down.

Heavy engine imports happen inside :func:`run_fault_experiment` so this
module can be imported from :mod:`repro.faults` without dragging the
whole engine stack (and a circular import) behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from repro.faults.plan import FaultSpec

__all__ = [
    "FaultExperimentConfig",
    "FaultTrial",
    "FaultExperimentResult",
    "run_fault_experiment",
]


@dataclass(frozen=True)
class FaultExperimentConfig:
    """Parameters of the `repro faults` sweep.

    Attributes
    ----------
    num_documents, num_peers:
        Scale of the seeded Broder-style graph and its random placement.
    epsilon, damping:
        Algorithm parameters (paper defaults).
    loss_rates:
        One table row per rate (ISSUE default: 0 / 1 / 5 / 20 %).
    duplicate_rate, delay_rate, max_delay_passes:
        Held constant across rows so loss is the only moving part.
    crash_passes:
        Two mid-run crash times; the crashed peers are spread across
        the population deterministically.
    crash_down_passes:
        Reboot delay after each crash.
    max_passes:
        Per-row pass budget.
    seed:
        Master seed: graph, placement, and every row's fault plan
        derive from it, so the whole table replays exactly.
    """

    num_documents: int = 200
    num_peers: int = 16
    epsilon: float = 1e-3
    damping: float = 0.85
    loss_rates: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.20)
    duplicate_rate: float = 0.02
    delay_rate: float = 0.05
    max_delay_passes: int = 2
    crash_passes: Tuple[int, ...] = (3, 7)
    crash_down_passes: int = 2
    max_passes: int = 2_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_documents < 1:
            raise ValueError("num_documents must be >= 1")
        if self.num_peers < 1:
            raise ValueError("num_peers must be >= 1")
        if not self.loss_rates:
            raise ValueError("loss_rates must not be empty")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")

    def spec_for(self, loss_rate: float) -> FaultSpec:
        """The fault mix of one table row: the given loss rate plus the
        config's constant duplication/delay/crash schedule."""
        crashes = tuple(
            (int(t), (1 + 3 * i) % self.num_peers)
            for i, t in enumerate(self.crash_passes)
        )
        return FaultSpec(
            drop_rate=float(loss_rate),
            duplicate_rate=self.duplicate_rate,
            delay_rate=self.delay_rate,
            max_delay_passes=self.max_delay_passes,
            crashes=crashes,
            crash_down_passes=self.crash_down_passes,
        )


@dataclass(frozen=True)
class FaultTrial:
    """One row of the table: the run outcome at one loss rate.

    ``abandoned`` counts updates whose flight exhausted its retry
    budget over the whole run, including batches that later relaunched
    or died with a crashed sender (cumulative, not what is still
    held); ``stop`` says why the run ended: ``"converged"``,
    ``"stagnation"`` (the residual-stagnation abort) or ``"pass cap"``.
    """

    loss_rate: float
    converged: bool
    passes: int
    messages: int
    retries: int
    dropped: int
    duplicated: int
    crashes: int
    l1_error: float
    abandoned: int
    stop: str

    @classmethod
    def from_run(cls, loss_rate: float, sim, report, l1_error: float) -> "FaultTrial":
        """The row of one finished faulted simulator run."""
        stats = sim.transport.stats
        if report.converged:
            stop = "converged"
        elif report.diagnostics is not None:
            stop = "stagnation"
        else:
            stop = "pass cap"
        return cls(
            loss_rate=float(loss_rate),
            converged=report.converged,
            passes=report.passes,
            messages=report.total_messages,
            retries=stats.retries,
            dropped=stats.dropped_updates,
            duplicated=stats.duplicated_updates,
            crashes=stats.crashes,
            l1_error=l1_error,
            abandoned=stats.abandoned_updates,
            stop=stop,
        )


@dataclass(frozen=True)
class FaultExperimentResult:
    """All rows plus enough context to render and regression-test."""

    config: FaultExperimentConfig
    trials: Tuple[FaultTrial, ...]

    def render(self) -> str:
        """The plain-text table the `repro faults` CLI prints."""
        # Lazy: repro.analysis's package init pulls in the engines.
        from repro.analysis.tables import format_table

        rows = [
            (
                f"{t.loss_rate:.0%}",
                t.converged,
                t.passes,
                t.messages,
                t.retries,
                t.dropped,
                t.duplicated,
                t.crashes,
                t.abandoned,
                t.l1_error,
                t.stop,
            )
            for t in self.trials
        ]
        return format_table(
            [
                "loss", "converged", "passes", "messages", "retries",
                "dropped", "duplicated", "crashes", "abandoned",
                "L1 vs reference", "stop",
            ],
            rows,
            title=(
                "Convergence under injected faults "
                f"({self.config.num_documents} docs, "
                f"{self.config.num_peers} peers, "
                f"eps={self.config.epsilon:g}, "
                f"seed={self.config.seed})"
            ),
        )


def run_fault_experiment(
    config: FaultExperimentConfig = FaultExperimentConfig(),
) -> FaultExperimentResult:
    """Run the sweep: one protocol-simulator run per loss rate.

    Every row shares the graph, placement, duplication/delay rates and
    crash schedule; only the loss rate (and the row's derived plan
    seed) changes.  The relative L1 error is
    ``|R_d - R_c|_1 / |R_c|_1`` against the centralized reference.
    """
    # Imported here, not at module top: repro.faults re-exports this
    # function, and the engines import repro.faults.plan.
    from repro.core.pagerank import pagerank_reference
    from repro.scenario import Scenario, build

    # The rows share one graph and network, placed from the seed
    # itself; row i draws its plan from seed + 1 + i.
    base = Scenario(
        config.num_documents, config.num_peers, "simulator", config.epsilon,
        config.damping, seed=config.seed, placement_offset=0,
    )
    shared = build(base)
    reference = pagerank_reference(shared.graph).ranks
    ref_mass = float(np.abs(reference).sum())
    trials = []
    for i, rate in enumerate(config.loss_rates):
        built = build(
            replace(base, faults=config.spec_for(rate), fault_offset=1 + i),
            reuse=shared,
        )
        report = built.solve(max_passes=config.max_passes)
        l1 = float(np.abs(report.ranks - reference).sum()) / ref_mass
        trials.append(FaultTrial.from_run(rate, built.engine, report, l1))
    return FaultExperimentResult(config=config, trials=tuple(trials))
