"""Ablation: progressive ε-tightening schedules (extension).

The paper runs every computation at one fixed ε.  Because the stop-
sending rule mutes documents individually, a coarse first stage lets
most of the graph fall silent cheaply, and a warm-started refinement
stage then only pays for the residual — an optimisation the incremental
machinery makes natural.  This benchmark sweeps schedules against the
direct single-ε run at matched final quality.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_PEERS, BENCH_SEED
from repro.analysis import error_distribution, format_table, reference_ranks
from repro.core import scheduled_pagerank
from repro.scenario import Scenario, build


def test_ablation_epsilon_schedule(benchmark, record_table):
    size = 20_000
    target = 1e-5

    def run_all():
        built = build(Scenario(size, BENCH_PEERS, epsilon=target, seed=BENCH_SEED))
        ref = reference_ranks(built)
        out = {}
        direct = built.solve()
        out["direct 1e-5"] = direct
        for label, schedule in [
            ("2-stage 1e-2 -> 1e-5", (1e-2, 1e-5)),
            ("3-stage 1e-1 -> 1e-3 -> 1e-5", (1e-1, 1e-3, 1e-5)),
        ]:
            out[label] = scheduled_pagerank(
                built.graph,
                built.network.placement.assignment,
                num_peers=BENCH_PEERS,
                schedule=schedule,
            )
        return ref, out

    ref, results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for label, report in results.items():
        dist = error_distribution(report.ranks, ref)
        rows.append((
            label,
            report.passes,
            report.total_messages,
            f"{dist.percentile_errors[99.0]:.1e}",
        ))
    record_table(
        "Ablation epsilon schedule",
        format_table(
            ["strategy", "passes", "messages", "p99 err"],
            rows,
            title=f"Progressive tightening to eps={target:g} ({size} nodes)",
        ),
    )

    direct = results["direct 1e-5"]
    for label, report in results.items():
        assert report.converged, label
        # matched quality across strategies
        dist = error_distribution(report.ranks, ref)
        assert dist.percentile_errors[99.0] < 1e-3, label
    # Both schedules beat the direct run on traffic.
    for label in ("2-stage 1e-2 -> 1e-5", "3-stage 1e-1 -> 1e-3 -> 1e-5"):
        assert results[label].total_messages < direct.total_messages, label
