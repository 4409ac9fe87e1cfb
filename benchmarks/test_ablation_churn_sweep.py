"""Ablation: convergence cost across the full availability range.

Table 1 samples three availability levels (100/75/50 %).  This sweep
runs the whole curve down to 30 % — where the paper never went — and
also contrasts the i.i.d.-redraw churn model with correlated Markov
churn of equal stationary availability, checking that the paper's
"only a factor of two slowdown" headline is a property of the
availability *level* rather than the churn *model*.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_PEERS, BENCH_SEED
from repro.analysis import format_table
from repro.p2p import MarkovChurn
from repro.scenario import Scenario, build


def test_ablation_churn_sweep(benchmark, record_table):
    size = 10_000
    eps = 1e-3
    fractions = (1.0, 0.9, 0.75, 0.5, 0.3)

    def run_all():
        built = None
        out = {}
        for frac in fractions:
            scenario = Scenario(
                size, BENCH_PEERS, epsilon=eps, availability=frac, seed=BENCH_SEED
            )
            built = build(scenario, reuse=built)
            out[("iid", frac)] = built.solve(max_passes=50_000)
        # Markov churn at 75% and 50% stationary availability.
        for frac, (p_leave, p_join) in [(0.75, (0.1, 0.3)), (0.5, (0.2, 0.2))]:
            model = MarkovChurn(BENCH_PEERS, p_leave, p_join, seed=BENCH_SEED + 3)
            out[("markov", frac)] = built.engine.run(
                availability=model, max_passes=50_000, keep_history=False
            )
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    base = results[("iid", 1.0)].passes
    rows = []
    for (model, frac), report in sorted(
        results.items(), key=lambda kv: (-kv[0][1], kv[0][0])
    ):
        rows.append((
            f"{model}, {int(frac * 100)}% available",
            report.passes,
            f"x{report.passes / base:.2f}",
            report.total_messages,
            "yes" if report.converged else "NO",
        ))
    record_table(
        "Ablation churn sweep",
        format_table(
            ["availability model", "passes", "slowdown", "messages", "converged"],
            rows,
            title=f"Convergence vs availability ({size} nodes, eps={eps:g})",
        ),
    )

    # Every configuration converges.
    for report in results.values():
        assert report.converged
    # Slowdown grows monotonically as availability falls (iid family).
    iid = [results[("iid", f)].passes for f in fractions]
    assert all(a <= b for a, b in zip(iid, iid[1:]))
    # Even 30% availability stays within a constant factor (~13x
    # measured; the paper's 2x at 50% extends smoothly, no cliff).
    assert results[("iid", 0.3)].passes < 25 * base
    # Churn DECREASES total messages: stored updates coalesce to the
    # newest value while the receiver is away, an unadvertised benefit
    # of the section 3.1 protocol.
    assert (
        results[("iid", 0.5)].total_messages
        < results[("iid", 1.0)].total_messages
    )
    # The correlated model lands in the same cost band as iid at equal
    # stationary availability (within 3x either way).
    for frac in (0.75, 0.5):
        ratio = results[("markov", frac)].passes / results[("iid", frac)].passes
        assert 1 / 3 < ratio < 3.0, f"markov/iid ratio {ratio:.2f} at {frac}"
