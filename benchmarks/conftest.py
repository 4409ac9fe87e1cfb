"""Shared infrastructure for the benchmark harness.

Every ``benchmarks/test_table*.py`` module regenerates one table of the
paper: it runs the corresponding :mod:`repro.analysis.experiments`
driver once (timed via ``benchmark.pedantic`` so ``--benchmark-only``
reports the cost), asserts the paper's *shape* claims hold, and records
the rendered table.  All recorded tables are printed in the terminal
summary and written to ``benchmarks/results/`` so a
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` run
leaves the full reproduction output on disk.

Scale: graph sizes default to (10_000, 30_000); set ``REPRO_FULL_SCALE``
to run the paper's sizes (up to 5,000,000 nodes — budget hours).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Tuple

import pytest

from repro import obs

RESULTS_DIR = Path(__file__).parent / "results"

#: (title, rendered text) pairs accumulated across the session.
_RECORDED: List[Tuple[str, str]] = []

#: Benchmark-default graph sizes (kept modest so the whole harness
#: completes in minutes; REPRO_FULL_SCALE switches to paper sizes).
BENCH_SIZES: Tuple[int, ...] = (
    (10_000, 100_000, 500_000, 5_000_000)
    if os.environ.get("REPRO_FULL_SCALE")
    else (10_000, 30_000)
)

#: The paper's 500-peer population.
BENCH_PEERS = 500

#: Common seed for every benchmark.
BENCH_SEED = 0


@pytest.fixture(scope="session")
def bench_sizes() -> Tuple[int, ...]:
    return BENCH_SIZES


@pytest.fixture(autouse=True)
def _bench_metrics_registry():
    """Collect observability metrics for each benchmark test.

    Each recorded table's results file gets a sibling
    ``<name>.metrics.json`` snapshot of its own test's counts (a fresh
    registry per test, so the snapshot does not depend on which tests
    ran before it) so a benchmark run leaves the measured
    instrumentation — messages, passes, hops, bytes — on disk next to
    the rendered numbers.
    """
    with obs.use_registry() as reg:
        yield reg


@pytest.fixture()
def record_table():
    """Record a rendered table for the terminal summary and results
    dir, attaching the current metrics snapshot alongside."""

    def _record(name: str, text: str) -> None:
        _RECORDED.append((name, text))
        RESULTS_DIR.mkdir(exist_ok=True)
        safe = name.lower().replace(" ", "_").replace("/", "-")
        (RESULTS_DIR / f"{safe}.txt").write_text(text + "\n")
        reg = obs.get_registry()
        if reg.enabled and len(reg):
            (RESULTS_DIR / f"{safe}.metrics.json").write_text(
                obs.snapshot_to_json(reg.snapshot()) + "\n"
            )

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RECORDED:
        return
    terminalreporter.section("reproduced paper tables")
    for name, text in _RECORDED:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {name}")
        for line in text.splitlines():
            terminalreporter.write_line(line)
