"""Micro-benchmarks of the computational kernels.

These are the pieces whose cost the paper's Eq. 4 folds into the
per-pass compute term C_p (estimated at about a minute for the 5000k
graph on 2003 hardware): one pull pass over all links, the selective
per-row recompute, the reference solve, and graph synthesis.  Tracked
so performance regressions in the vectorized kernels are caught.

The kernel benchmarks time :class:`repro.core.kernels.CSRWorkspace`,
the one kernel class every engine uses.  Each measured timing (best
observed call) is also
written to ``BENCH_pagerank.micro.json`` at the repo root, a sidecar
of the ``repro bench`` harness's ``BENCH_pagerank.json`` (see
docs/PERFORMANCE.md).
"""

import json
import time
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.core import ChaoticPagerank, pagerank_reference
from repro.core.kernels import CSRWorkspace
from repro.graphs import broder_graph

#: Best observed wall-time per benchmark, flushed to the sidecar.
_TIMINGS: Dict[str, float] = {}

_SIDECAR = Path(__file__).resolve().parent.parent / "BENCH_pagerank.micro.json"


@pytest.fixture(scope="module", autouse=True)
def _micro_sidecar():
    """Write measured timings next to the harness JSON on teardown."""
    yield
    if not _TIMINGS:
        return
    payload = {
        "schema": 1,
        "source": "benchmarks/test_kernels_scaling.py",
        "timings_s": dict(sorted(_TIMINGS.items())),
    }
    _SIDECAR.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _timed(name, fn):
    """Record the best observed call time under ``name``."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        best = _TIMINGS.get(name)
        if best is None or elapsed < best:
            _TIMINGS[name] = elapsed
        return result

    return wrapper


@pytest.fixture(scope="module")
def graph100k():
    return broder_graph(100_000, seed=0)


def test_bench_pull_pass(benchmark, graph100k):
    """One full pull pass over a 100k-node / ~250k-link graph (the
    CSR reverse-bincount kernel)."""
    ws = CSRWorkspace.from_graph(graph100k)
    values = np.ones(graph100k.num_nodes)
    out = np.empty_like(values)
    benchmark(_timed("pull_pass_100k", lambda: ws.pull(values, 0.85, out=out)))


def test_bench_pull_rows(benchmark, graph100k):
    """Selective recompute of a 5% row frontier (the path the chaotic
    engine takes once activity localises)."""
    ws = CSRWorkspace.from_graph(graph100k)
    values = np.ones(graph100k.num_nodes)[ws.src]
    rng = np.random.default_rng(1)
    rows = np.unique(rng.integers(0, graph100k.num_nodes, size=5_000))
    benchmark(_timed("pull_rows_5pct_100k", lambda: ws.pull_rows(values, 0.85, rows)))


def test_bench_reference_solver(benchmark, graph100k):
    """Full synchronous solve at practical tolerance."""
    benchmark.pedantic(
        _timed(
            "reference_solve_100k",
            lambda: pagerank_reference(graph100k, tol=1e-10),
        ),
        rounds=2,
        iterations=1,
    )


def test_bench_chaotic_run(benchmark, graph100k):
    """Full distributed run at the paper's recommended eps."""
    benchmark.pedantic(
        _timed(
            "chaotic_run_100k",
            lambda: ChaoticPagerank(graph100k, epsilon=1e-4).run(
                keep_history=False
            ),
        ),
        rounds=2,
        iterations=1,
    )


def test_bench_graph_synthesis(benchmark):
    """Power-law graph generation throughput (100k nodes)."""
    seeds = iter(range(10_000))
    benchmark.pedantic(
        _timed(
            "broder_synthesis_100k",
            lambda: broder_graph(100_000, seed=next(seeds)),
        ),
        rounds=3,
        iterations=1,
    )


def test_bench_reverse_build(benchmark, graph100k):
    """Building the in-link CSR (needed once per reference solve)."""

    def build():
        # defeat the cache by constructing a fresh equal graph
        g = type(graph100k)(graph100k.indptr, graph100k.indices, validate=False)
        return g.reverse()

    benchmark.pedantic(_timed("reverse_build_100k", build), rounds=3, iterations=1)
