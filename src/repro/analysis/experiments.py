"""Experiment drivers: one function per table in the paper (§4).

Each ``tableN`` function runs the workload behind the corresponding
table of the evaluation section and returns a structured result with a
``render()`` method printing the same rows the paper reports.  The
benchmark harness (``benchmarks/``) is a thin wrapper over these, and
EXPERIMENTS.md records their output against the paper's numbers.

Scale
-----
The paper's graphs go up to 5,000,000 nodes.  All drivers take explicit
``sizes``; :func:`default_sizes` returns laptop-scale defaults (10k /
30k / 100k) unless the ``REPRO_FULL_SCALE`` environment variable is set
(non-empty), in which case the paper's sizes are used.  The paper's
headline *shape* claims hold at either scale.

Seeding
-------
Every driver takes one integer ``seed``, so results are exactly
reproducible.  Tables 1–4 build their runs with
:func:`repro.scenario.build` and draw each stream at a fixed offset
from the seed (graph +0, placement +1, churn +2; Table 4's insert
sample +3; docs/API.md "Seed offsets").  Table 6 spawns independent
streams for its corpus, placement and queries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util.rng import SeedLike, as_generator, spawn_generators
from repro.analysis.error_stats import (
    PAPER_PERCENTILES,
    ErrorDistribution,
    error_distribution,
)
from repro.analysis.tables import format_table
from repro.core.convergence import RunReport
from repro.core.distributed import ChaoticPagerank
from repro.core.incremental import simulate_insert
from repro.core.pagerank import pagerank_reference
from repro.p2p.network import DocumentPlacement
from repro.scenario import Built, Scenario, build
from repro.search.baseline import baseline_search
from repro.search.corpus import CorpusConfig, synthesize_corpus
from repro.search.incremental import incremental_search
from repro.search.index import DistributedIndex
from repro.search.query import generate_queries

__all__ = [
    "DEFAULT_SIZES",
    "FULL_SIZES",
    "PAPER_THRESHOLDS",
    "INSERT_THRESHOLDS",
    "default_sizes",
    "reference_ranks",
    "clear_reference_cache",
    "Table1Result",
    "table1",
    "Table2Result",
    "table2",
    "Table3Result",
    "table3",
    "Table4Result",
    "table4",
    "Table5Result",
    "table5",
    "Table6Result",
    "table6",
]

#: Laptop-scale default graph sizes (paper: 10k/100k/500k/5000k).
DEFAULT_SIZES: Tuple[int, ...] = (10_000, 30_000, 100_000)
#: The paper's sizes, enabled with ``REPRO_FULL_SCALE=1``.
FULL_SIZES: Tuple[int, ...] = (10_000, 100_000, 500_000, 5_000_000)

#: Table 2/3's convergence thresholds ε.
PAPER_THRESHOLDS: Tuple[float, ...] = (0.2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
#: Table 4's thresholds (the paper sweeps 0.2 and 1e-2 … 1e-6 there).
INSERT_THRESHOLDS: Tuple[float, ...] = (0.2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

#: The paper's peer count for §4.3–§4.7.
PAPER_NUM_PEERS = 500


def default_sizes() -> Tuple[int, ...]:
    """Graph sizes to run: laptop defaults, or the paper's when the
    ``REPRO_FULL_SCALE`` environment variable is set."""
    return FULL_SIZES if os.environ.get("REPRO_FULL_SCALE") else DEFAULT_SIZES


# ----------------------------------------------------------------------
# Shared inputs: the reference solution R_c (cached per process)
# ----------------------------------------------------------------------
_reference_cache: Dict[Tuple[int, int, float], np.ndarray] = {}


def reference_ranks(built: Built) -> np.ndarray:
    """The synchronous reference R_c of ``built``'s graph.

    Tables 2 and 4 and the §4.3 trajectory measure against the same
    solve; it is cached per (graph size, graph seed, damping).
    """
    s = built.scenario
    key = (s.docs, s.seed + s.graph_offset, s.damping)
    r = _reference_cache.get(key)
    if r is None:
        r = _reference_cache[key] = pagerank_reference(
            built.graph, damping=s.damping
        ).ranks
    return r


def clear_reference_cache() -> None:
    """Drop cached reference solutions (frees memory after full-scale
    runs)."""
    _reference_cache.clear()


def _solve_converged(table: str, built: Built, max_passes: int, at: str) -> RunReport:
    """Run ``built`` once; a run that did not converge aborts the table."""
    report = built.solve(max_passes=max_passes)
    if not report.converged:
        raise RuntimeError(
            f"{table}: no convergence at size={built.scenario.docs}, {at} "
            f"within {max_passes} passes"
        )
    return report


# ----------------------------------------------------------------------
# Table 1 — convergence passes vs. graph size and peer availability
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Result:
    """Passes to convergence per graph size and availability fraction."""

    sizes: Tuple[int, ...]
    fractions: Tuple[float, ...]
    epsilon: float
    num_peers: int
    #: ``passes[(size, fraction)]`` = passes to convergence.
    passes: Dict[Tuple[int, float], int]

    def render(self) -> str:
        headers = ["Graph size"] + [f"{int(f * 100)}% peers" for f in self.fractions]
        rows = [
            [size] + [self.passes[(size, f)] for f in self.fractions]
            for size in self.sizes
        ]
        return format_table(
            headers,
            rows,
            title=(
                f"Table 1: convergence passes ({self.num_peers} peers, "
                f"eps={self.epsilon:g})"
            ),
        )


def table1(
    sizes: Optional[Sequence[int]] = None,
    *,
    fractions: Sequence[float] = (1.0, 0.75, 0.5),
    epsilon: float = 1e-3,
    num_peers: int = PAPER_NUM_PEERS,
    seed: int = 0,
    max_passes: int = 20_000,
    damping: float = 0.85,
) -> Table1Result:
    """Reproduce Table 1: convergence rate vs. size × availability.

    For each graph size, runs the distributed computation with all
    peers present and with :class:`FixedFractionChurn` at the given
    availability fractions, recording passes to the strong convergence
    criterion.
    """
    sizes = tuple(sizes) if sizes is not None else default_sizes()
    passes: Dict[Tuple[int, float], int] = {}
    for size in sizes:
        built = None
        for frac in fractions:
            scenario = Scenario(
                size, num_peers, epsilon=epsilon, damping=damping,
                availability=frac, seed=seed,
            )
            built = build(scenario, reuse=built)
            report = _solve_converged("table1", built, max_passes, f"fraction={frac}")
            passes[(size, float(frac))] = report.passes
    return Table1Result(
        sizes=sizes,
        fractions=tuple(float(f) for f in fractions),
        epsilon=float(epsilon),
        num_peers=num_peers,
        passes=passes,
    )


# ----------------------------------------------------------------------
# Table 2 — relative-error distribution vs. threshold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table2Result:
    """Error-vs-reference distributions per graph size and ε."""

    sizes: Tuple[int, ...]
    thresholds: Tuple[float, ...]
    #: ``distributions[(size, eps)]`` = the Table 2 column block.
    distributions: Dict[Tuple[int, float], ErrorDistribution]
    percentiles: Tuple[float, ...] = PAPER_PERCENTILES

    def render(self) -> str:
        blocks = []
        for size in self.sizes:
            headers = ["% pages"] + [f"eps={t:g}" for t in self.thresholds]
            labels = [f"{p:g}" for p in self.percentiles] + ["Max.", "Avg."]
            rows = []
            for li, label in enumerate(labels):
                row: List = [label]
                for t in self.thresholds:
                    dist = self.distributions[(size, t)]
                    cells = dist.rows()
                    row.append(cells[li][1])
                rows.append(row)
            blocks.append(
                format_table(
                    headers,
                    rows,
                    title=f"Table 2: relative error distribution, {size} nodes",
                )
            )
        return "\n\n".join(blocks)


def table2(
    sizes: Optional[Sequence[int]] = None,
    *,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    num_peers: int = PAPER_NUM_PEERS,
    seed: int = 0,
    max_passes: int = 20_000,
    damping: float = 0.85,
) -> Table2Result:
    """Reproduce Table 2: pagerank quality vs. convergence threshold.

    Runs the distributed scheme at each ε, solves the synchronous
    reference tightly, and reports the §4.4 error percentiles.
    """
    sizes = tuple(sizes) if sizes is not None else default_sizes()
    distributions: Dict[Tuple[int, float], ErrorDistribution] = {}
    for size in sizes:
        built = None
        for eps in thresholds:
            scenario = Scenario(
                size, num_peers, epsilon=eps, damping=damping, seed=seed
            )
            built = build(scenario, reuse=built)
            report = _solve_converged("table2", built, max_passes, f"epsilon={eps:g}")
            distributions[(size, float(eps))] = error_distribution(
                report.ranks, reference_ranks(built)
            )
    return Table2Result(
        sizes=sizes,
        thresholds=tuple(float(t) for t in thresholds),
        distributions=distributions,
    )


# ----------------------------------------------------------------------
# Table 3 — message traffic and execution-time estimates vs. threshold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table3Result:
    """Update-message totals per (size, ε) plus Eq. 4 time estimates."""

    sizes: Tuple[int, ...]
    thresholds: Tuple[float, ...]
    #: ``messages[(size, eps)]`` = (total messages, passes).
    messages: Dict[Tuple[int, float], Tuple[int, int]]
    #: Transfer rates (bytes/s) the time columns are computed for.
    rates: Tuple[int, ...]

    def per_node(self, size: int, eps: float) -> float:
        """Average update messages per document."""
        total, _ = self.messages[(size, eps)]
        return total / size

    def exec_time_hours(self, size: int, eps: float, rate: int) -> float:
        """Fully serialised Eq. 4 estimate, in hours, for the largest
        graph at the given rate (Table 3's last columns)."""
        from repro.simulation.timing import TransferModel, total_time_serialized

        total, passes = self.messages[(size, eps)]
        model = TransferModel(rate_bytes_per_s=rate)
        return total_time_serialized(total, model, passes=passes) / 3600.0

    def render(self) -> str:
        largest = max(self.sizes)
        headers = ["eps"]
        for size in self.sizes:
            headers += [f"{size} total", f"{size} avg"]
        headers += [f"hrs@{r // 1024}KB/s" for r in self.rates]
        rows = []
        for eps in self.thresholds:
            row: List = [f"{eps:g}"]
            for size in self.sizes:
                total, _ = self.messages[(size, eps)]
                row += [total, self.per_node(size, eps)]
            row += [self.exec_time_hours(largest, eps, r) for r in self.rates]
            rows.append(row)
        return format_table(
            headers,
            rows,
            title="Table 3: update-message traffic and execution time "
            f"(time columns for the {largest}-node graph)",
        )


def table3(
    sizes: Optional[Sequence[int]] = None,
    *,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    num_peers: int = PAPER_NUM_PEERS,
    seed: int = 0,
    max_passes: int = 20_000,
    damping: float = 0.85,
    rates: Sequence[int] = (32 * 1024, 200 * 1024),
) -> Table3Result:
    """Reproduce Table 3: total/average update messages per ε, and the
    §4.6.1 execution-time estimates for the largest graph."""
    sizes = tuple(sizes) if sizes is not None else default_sizes()
    messages: Dict[Tuple[int, float], Tuple[int, int]] = {}
    for size in sizes:
        built = None
        for eps in thresholds:
            scenario = Scenario(
                size, num_peers, epsilon=eps, damping=damping, seed=seed
            )
            built = build(scenario, reuse=built)
            report = _solve_converged("table3", built, max_passes, f"epsilon={eps:g}")
            messages[(size, float(eps))] = (report.total_messages, report.passes)
    return Table3Result(
        sizes=sizes,
        thresholds=tuple(float(t) for t in thresholds),
        messages=messages,
        rates=tuple(int(r) for r in rates),
    )


# ----------------------------------------------------------------------
# Table 4 — insert propagation: path length and node coverage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table4Result:
    """Mean path length / node coverage per (size, ε)."""

    sizes: Tuple[int, ...]
    thresholds: Tuple[float, ...]
    samples: int
    #: ``path_length[(size, eps)]`` and ``coverage[(size, eps)]``.
    path_length: Dict[Tuple[int, float], float]
    coverage: Dict[Tuple[int, float], float]

    def render(self) -> str:
        headers = ["eps"] + [str(s) for s in self.sizes]
        path_rows = [
            [f"{eps:g}"] + [self.path_length[(s, eps)] for s in self.sizes]
            for eps in self.thresholds
        ]
        cov_rows = [
            [f"{eps:g}"] + [self.coverage[(s, eps)] for s in self.sizes]
            for eps in self.thresholds
        ]
        return (
            format_table(
                headers,
                path_rows,
                title=f"Table 4a: insert path length (mean of {self.samples} inserts)",
            )
            + "\n\n"
            + format_table(
                headers,
                cov_rows,
                title=f"Table 4b: insert node coverage (mean of {self.samples} inserts)",
            )
        )


def table4(
    sizes: Optional[Sequence[int]] = None,
    *,
    thresholds: Sequence[float] = INSERT_THRESHOLDS,
    samples: int = 200,
    seed: int = 0,
    damping: float = 0.85,
) -> Table4Result:
    """Reproduce Table 4: document-insert update propagation.

    For each graph, converged reference ranks are computed, then
    ``samples`` random nodes are "inserted" (rank reset to 1.0 and
    propagated, the paper's §4.7 methodology; the paper averages 1000
    nodes) and the mean path length / node coverage recorded per ε.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sizes = tuple(sizes) if sizes is not None else default_sizes()
    path_length: Dict[Tuple[int, float], float] = {}
    coverage: Dict[Tuple[int, float], float] = {}
    for size in sizes:
        built = build(Scenario(size, PAPER_NUM_PEERS, damping=damping, seed=seed))
        graph, base = built.graph, reference_ranks(built)
        rng = as_generator(seed + 3)
        nodes = rng.choice(size, size=min(samples, size), replace=False)
        for eps in thresholds:
            paths = np.empty(nodes.size, dtype=np.float64)
            covs = np.empty(nodes.size, dtype=np.float64)
            for i, node in enumerate(nodes):
                result = simulate_insert(
                    graph,
                    int(node),
                    damping=damping,
                    epsilon=eps,
                    base_ranks=base,
                )
                paths[i] = result.path_length
                covs[i] = result.node_coverage
            path_length[(size, float(eps))] = float(paths.mean())
            coverage[(size, float(eps))] = float(covs.mean())
    return Table4Result(
        sizes=sizes,
        thresholds=tuple(float(t) for t in thresholds),
        samples=samples,
        path_length=path_length,
        coverage=coverage,
    )


# ----------------------------------------------------------------------
# Table 5 — qualitative summary backed by measured numbers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table5Result:
    """The paper's summary table, each claim annotated with a measured
    quantity from the other drivers' results."""

    rows: Tuple[Tuple[str, str], ...]

    def render(self) -> str:
        return format_table(["Aspect", "Finding"], self.rows, title="Table 5: summary")


def table5(
    t1: Table1Result,
    t2: Table2Result,
    t3: Table3Result,
    t4: Table4Result,
) -> Table5Result:
    """Assemble Table 5's claims from measured results.

    Each qualitative row of the paper's summary is restated with the
    numbers this reproduction measured, so the claim is checkable.
    """
    smallest, largest = min(t1.sizes), max(t1.sizes)
    full = t1.passes[(largest, 1.0)]
    half_key = min(t1.fractions)
    half = t1.passes[(largest, half_key)]
    growth = t1.passes[(largest, 1.0)] / t1.passes[(smallest, 1.0)]

    eps_star = 1e-4 if (largest, 1e-4) in t2.distributions else t2.thresholds[-1]
    dist = t2.distributions[(largest, eps_star)]
    p999 = dist.percentile_errors.get(99.9, dist.max_error)

    lo_eps, hi_eps = max(t3.thresholds), min(t3.thresholds)
    msg_growth = (
        t3.messages[(largest, hi_eps)][0] / max(t3.messages[(largest, lo_eps)][0], 1)
    )

    t4_eps = min(t4.thresholds)
    rows = (
        (
            "Convergence",
            f"{full} passes at {largest} nodes (x{growth:.2f} vs {smallest} nodes); "
            f"{half} passes with {int(half_key * 100)}% peers "
            f"(x{half / full:.2f} slowdown)",
        ),
        (
            "Pagerank quality",
            f"99.9% of pages within {p999:.2e} relative error at eps={eps_star:g}",
        ),
        (
            "Message traffic",
            f"{t3.per_node(largest, lo_eps):.0f} msgs/node at eps={lo_eps:g} -> "
            f"{t3.per_node(largest, hi_eps):.0f} at eps={hi_eps:g} "
            f"(x{msg_growth:.1f} for {lo_eps / hi_eps:.0e}x tighter eps: "
            "logarithmic growth)",
        ),
        (
            "Execution time",
            f"{t3.exec_time_hours(largest, 1e-3 if (largest, 1e-3) in t3.messages else lo_eps, t3.rates[0]):.1f} h "
            f"at {t3.rates[0] // 1024} KB/s (communication-dominated)",
        ),
        (
            "Insert/delete",
            f"mean path length {t4.path_length[(largest, t4_eps)]:.1f}, "
            f"coverage {t4.coverage[(largest, t4_eps)]:.0f} nodes at eps={t4_eps:g}: "
            "no global recompute",
        ),
    )
    return Table5Result(rows=rows)


# ----------------------------------------------------------------------
# Table 6 — incremental search traffic reduction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table6Result:
    """Search traffic reduction and hits returned per configuration."""

    fractions: Tuple[float, ...]
    arities: Tuple[int, ...]
    #: ``reduction[(fraction, arity)]`` = baseline traffic / incremental.
    reduction: Dict[Tuple[float, int], float]
    #: ``hits[(fraction, arity)]`` = mean final hits returned.
    hits: Dict[Tuple[float, int], float]
    #: ``baseline_hits[arity]`` = mean hits the baseline returns.
    baseline_hits: Dict[int, float]

    def render(self) -> str:
        headers = ["Scheme"] + [f"{a}-term" for a in self.arities]
        red_rows = [
            [f"Top {int(f * 100)}% forwarded"]
            + [self.reduction[(f, a)] for a in self.arities]
            for f in self.fractions
        ]
        hit_rows = [
            [f"Top {int(f * 100)}% forwarded"]
            + [self.hits[(f, a)] for a in self.arities]
            for f in self.fractions
        ]
        hit_rows.append(["Baseline"] + [self.baseline_hits[a] for a in self.arities])
        return (
            format_table(headers, red_rows, title="Table 6a: average traffic reduction")
            + "\n\n"
            + format_table(headers, hit_rows, title="Table 6b: average # hits returned")
        )


def table6(
    *,
    corpus_config: Optional[CorpusConfig] = None,
    fractions: Sequence[float] = (0.1, 0.2),
    arities: Sequence[int] = (2, 3),
    queries_per_arity: int = 20,
    num_peers: int = 50,
    epsilon: float = 1e-4,
    seed: int = 0,
) -> Table6Result:
    """Reproduce Table 6: incremental search vs. full forwarding.

    Builds the synthetic corpus (§4.9 substitute), computes its
    pageranks with the *distributed* scheme on ``num_peers`` peers (as
    the paper did), builds the pagerank-carrying index, and runs the
    synthetic query mix under the baseline and each top-x% policy.
    """
    rng_corpus, rng_place, rng_queries = spawn_generators(seed, 3)
    corpus = synthesize_corpus(corpus_config, seed=rng_corpus, with_links=True)
    assert corpus.link_graph is not None
    placement = DocumentPlacement.random(
        corpus.num_documents, num_peers, seed=rng_place
    )
    engine = ChaoticPagerank(
        corpus.link_graph,
        placement.assignment,
        num_peers=num_peers,
        epsilon=epsilon,
    )
    ranks = engine.run(keep_history=False).ranks
    index = DistributedIndex(corpus, ranks, num_peers)

    reduction: Dict[Tuple[float, int], float] = {}
    hits: Dict[Tuple[float, int], float] = {}
    baseline_hits: Dict[int, float] = {}
    for arity_i, arity in enumerate(arities):
        qs = generate_queries(
            corpus,
            num_queries=queries_per_arity,
            terms_per_query=arity,
            seed=rng_queries.spawn(1)[0],
        )
        base = [baseline_search(index, q) for q in qs]
        baseline_hits[arity] = float(np.mean([b.num_hits for b in base]))
        for frac in fractions:
            inc = [incremental_search(index, q, fraction=frac) for q in qs]
            ratios = [
                b.traffic_doc_ids / max(i.traffic_doc_ids, 1)
                for b, i in zip(base, inc)
            ]
            reduction[(float(frac), arity)] = float(np.mean(ratios))
            hits[(float(frac), arity)] = float(np.mean([i.num_hits for i in inc]))
    return Table6Result(
        fractions=tuple(float(f) for f in fractions),
        arities=tuple(int(a) for a in arities),
        reduction=reduction,
        hits=hits,
        baseline_hits=baseline_hits,
    )
