"""Chaotic (asynchronous-iteration) distributed PageRank engine.

This is the paper's primary contribution (§2.3, Figure 1) under the
simulation methodology of §4.2: all peers recompute concurrently in
passes; update messages are delivered instantaneously between passes;
a document whose relative rank change drops below the threshold ε
**stops sending updates**, so its downstream consumers keep using the
last value it actually sent.  That last rule is what distinguishes the
scheme from plain Jacobi iteration — it is the source of both the
message savings (Table 3) and the residual error versus the
synchronous solution (Table 2).

The pass itself is the one-shard case of the sharded pass step in
:mod:`repro.core.shard`: :func:`run_whole_graph` drives a single
:class:`~repro.core.shard.ShardRunner` over one whole-graph shard,
which uses the engine's :class:`~repro.core.kernels.CSRWorkspace` and
per-edge arrays as they are; the same driver runs any sparse
``x = Mx + c`` system (:mod:`repro.core.linear`).  The step keeps
per-*edge* delivered-value state, because §3.1's store-and-resend
means different out-edges of one document can hold different vintages
of its rank while receiving peers are absent, and recomputes only the
frontier — the documents whose delivered inputs changed — so a run
with every peer up is the same step with nothing ever deferred.

Document-to-peer placement is an integer array ``assignment`` mapping
each document to its peer; only cross-peer deliveries count as network
messages (intra-peer updates are free, §2.3 step 2).  When no
assignment is given, every document is treated as living on its own
peer, making every link a network link (the conservative default).

The object-message-level twin of this engine — real peers, Chord
lookups, message objects — lives in :mod:`repro.simulation.engine`;
integration tests assert both produce identical ranks and message
counts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional, Sequence

import numpy as np

from repro._util import check_positive, check_threshold
from repro.core.convergence import ConvergenceTracker, PassStats, RunReport
from repro.core.kernels import CSRWorkspace
from repro.core.pagerank import DEFAULT_DAMPING
from repro.core.personalized import preference_shift
from repro.core.shard import (
    COL_DROPPED,
    COL_RESENT,
    N_STAT_COLS,
    AllLive,
    AvailabilityModel,
    PassObserver,
    ShardRunner,
    WorkerState,
    check_run_budget,
    cross_peer_edges,
    initial_rank_vector,
    pass_stats,
    resolve_assignment,
    run_shards,
)
from repro.faults.plan import FaultPlan
from repro.graphs.linkgraph import LinkGraph
from repro.obs import MetricsRegistry, get_registry, get_trace_sink

__all__ = [
    "ChaoticPagerank",
    "AvailabilityModel",
    "distributed_pagerank",
    "run_whole_graph",
    "scheduled_pagerank",
]


class _CoreInstruments:
    """Registry handles for the engine's per-pass emissions.

    Fetched once per run; under the default (disabled) registry every
    handle is a shared no-op singleton, so the per-pass cost of the
    instrumentation is a handful of empty method calls — it never
    touches the numerical state.  Names are documented in
    docs/OBSERVABILITY.md.
    """

    __slots__ = (
        "passes",
        "updates",
        "messages",
        "deferred",
        "resent",
        "dropped",
        "dead_passes",
        "residual",
        "active",
        "live_peers",
        "pass_timer",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.passes = reg.counter(
            "core.passes", unit="passes",
            description="engine passes executed (Table 1 x-axis)",
        )
        self.updates = reg.counter(
            "core.updates_applied", unit="documents",
            description="document recomputes that crossed epsilon and published",
        )
        self.messages = reg.counter(
            "core.messages_sent", unit="messages",
            description="epsilon-gated cross-peer update messages (Table 3)",
        )
        self.deferred = reg.counter(
            "core.messages_deferred", unit="messages",
            description="updates stored for absent receivers (section 3.1)",
        )
        self.resent = reg.counter(
            "core.messages_resent", unit="messages",
            description="store-and-resend deliveries to returned peers",
        )
        self.dropped = reg.counter(
            "core.messages_dropped", unit="messages",
            description="cross-peer deliveries lost to injected faults "
                        "(parked for retransmission next pass)",
        )
        self.dead_passes = reg.counter(
            "core.dead_passes", unit="passes",
            description="passes skipped because zero peers were live",
        )
        self.residual = reg.gauge(
            "core.residual", unit="rel. change",
            description="max per-document relative change of the latest pass",
        )
        self.active = reg.gauge(
            "core.active_documents", unit="documents",
            description="documents above epsilon in the latest pass",
        )
        self.live_peers = reg.gauge(
            "core.live_peers", unit="peers",
            description="peers present during the latest pass",
        )
        self.pass_timer = reg.timer(
            "core.pass_seconds",
            description="wall-clock seconds per vectorized engine pass",
        )


class ChaoticPagerank:
    """Distributed chaotic-iteration pagerank on a document link graph.

    Parameters
    ----------
    graph:
        The document link graph.
    assignment:
        Integer array mapping document -> peer id, or ``None`` to place
        every document on its own peer (all links become cross-peer).
    num_peers:
        Explicit peer count (defaults to ``assignment.max() + 1``).
    damping:
        Damping factor ``d`` (paper/Google default 0.85).
    epsilon:
        Convergence / stop-sending threshold ε (paper evaluates 0.2
        and 1e-3 … 1e-7).
    init_rank:
        Initial rank of every document; 1.0 per the paper.  The initial
        value is a global constant every peer knows, so no messages are
        needed to establish it.
    preference:
        Optional teleport preference vector ``v`` for topic-sensitive
        ranking (§7, :mod:`repro.core.personalized`): the constant term
        ``1-d`` becomes ``(1-d)·N·v``.  It is local state at each
        document's owner, so the message protocol is unchanged.

    Examples
    --------
    >>> from repro.graphs import cycle_graph
    >>> engine = ChaoticPagerank(cycle_graph(4), epsilon=1e-6)
    >>> report = engine.run()
    >>> bool(report.converged)
    True
    >>> np.allclose(report.ranks, 1.0)   # cycle pagerank is uniform
    True
    """

    def __init__(
        self,
        graph: LinkGraph,
        assignment: Optional[np.ndarray] = None,
        *,
        num_peers: Optional[int] = None,
        damping: float = DEFAULT_DAMPING,
        epsilon: float = 1e-3,
        init_rank: float = 1.0,
        preference: Optional[np.ndarray] = None,
    ) -> None:
        check_threshold("damping", damping)
        check_threshold("epsilon", epsilon)
        check_positive("init_rank", init_rank)
        self.graph = graph
        self.damping = float(damping)
        self.epsilon = float(epsilon)
        self.init_rank = float(init_rank)

        self.assignment, self.num_peers = resolve_assignment(
            graph.num_nodes, assignment, num_peers
        )
        self._shift = (
            None if preference is None
            else preference_shift(preference, graph.num_nodes, self.damping)
        )
        self.workspace = CSRWorkspace.from_graph(graph)
        # Only cross-peer deliveries are counted as network messages.
        self._cross_edge = cross_peer_edges(self.workspace, self.assignment)

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_passes: int = 100_000,
        availability: Optional[AvailabilityModel] = None,
        initial_ranks: Optional[np.ndarray] = None,
        keep_history: bool = True,
        on_pass: Optional[PassObserver] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_dead_passes: int = 50,
    ) -> RunReport:
        """Iterate until the strong convergence criterion or the pass
        budget is hit.

        Parameters
        ----------
        max_passes:
            Upper bound on passes; the report carries
            ``converged=False`` if exhausted.
        availability:
            Optional peer-availability model (see
            :class:`AvailabilityModel`); ``None`` means all peers are
            always present (Table 1's 100 % column).
        fault_plan:
            Optional seeded :class:`repro.faults.FaultPlan`.  The
            vectorized engine honours the plan's *message loss* only: a
            dropped cross-peer delivery is parked in the §3.1
            store-and-resend state and retransmitted next pass, which
            is exactly what a reliable transport converges to at
            pass granularity.  Duplicates are no-ops on the engine's
            idempotent per-edge state, and crash/partition faults need
            the message-level simulator
            (:class:`repro.simulation.engine.P2PPagerankSimulation`).
        max_dead_passes:
            Cap on *consecutive* passes with zero live peers; exceeded
            → ``RuntimeError`` instead of a silent stall (dead passes
            are skipped, never evaluated for convergence).
        initial_ranks:
            Warm-start ranks (e.g. resuming after an incremental
            insert); defaults to ``init_rank`` everywhere.  Warm-start
            values are assumed to have been propagated already.
        keep_history:
            Record per-pass :class:`PassStats` (disable on full-scale
            runs to save memory).
        on_pass:
            Optional observer called after every pass as
            ``on_pass(pass_index, ranks)`` with a read-only view of the
            current ranks — used by the convergence-trajectory analysis
            (§4.3's "99 % of nodes within 1 % in under 10 passes").
            The array is reused between passes; copy it to keep it.

        Returns
        -------
        RunReport
        """
        if availability is None:
            if fault_plan is None:
                return self._run_static(
                    max_passes, initial_ranks, keep_history, on_pass
                )
            availability = AllLive(self.num_peers)
        return self._run_churn(
            max_passes, availability, initial_ranks, keep_history, on_pass,
            fault_plan=fault_plan, max_dead_passes=max_dead_passes,
        )

    # ------------------------------------------------------------------
    # Two entry points of one step: profilers time them apart.
    def _run_static(
        self,
        max_passes: int,
        initial_ranks: Optional[np.ndarray],
        keep_history: bool,
        on_pass: Optional[PassObserver] = None,
    ) -> RunReport:
        """All peers always present: the pass step under :class:`AllLive`."""
        return self._solve(
            initial_ranks, max_passes=max_passes, keep_history=keep_history,
            on_pass=on_pass,
        )

    def _run_churn(
        self,
        max_passes: int,
        availability: AvailabilityModel,
        initial_ranks: Optional[np.ndarray],
        keep_history: bool,
        on_pass: Optional[PassObserver] = None,
        *,
        fault_plan: Optional[FaultPlan] = None,
        max_dead_passes: int = 50,
    ) -> RunReport:
        """Peers leave and join between passes (§3.1)."""
        return self._solve(
            initial_ranks, max_passes=max_passes, availability=availability,
            keep_history=keep_history, on_pass=on_pass,
            fault_plan=fault_plan, max_dead_passes=max_dead_passes,
        )

    def _solve(self, initial_ranks: Optional[np.ndarray], **run: Any) -> RunReport:
        """:func:`run_whole_graph` on this graph; ``run`` is run control."""
        g = self.graph
        return run_whole_graph(
            self.workspace, g.indptr, self.assignment, self.num_peers,
            self._cross_edge,
            damping=self.damping, epsilon=self.epsilon, shift=self._shift,
            initial=initial_rank_vector(g.num_nodes, self.init_rank, initial_ranks),
            **run,
        )


def run_whole_graph(
    workspace: CSRWorkspace,
    indptr: np.ndarray,
    assignment: np.ndarray,
    num_peers: int,
    cross_edge: np.ndarray,
    *,
    damping: float,
    epsilon: float,
    shift: Optional[np.ndarray],
    initial: np.ndarray,
    max_passes: int,
    availability: Optional[AvailabilityModel] = None,
    keep_history: bool = True,
    on_pass: Optional[PassObserver] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_dead_passes: int = 50,
) -> RunReport:
    """Run the pass step over one whole-graph shard from ``initial``,
    which becomes the rank array, with every peer up unless
    ``availability`` says otherwise, and report every pass through the
    ``core.*`` metrics, the trace and the tracker.  ``indptr`` is the
    forward adjacency's row pointer, which indexes the workspace's
    edges by source."""
    check_run_budget(max_passes, max_dead_passes)
    n = workspace.num_nodes
    tracker = ConvergenceTracker(epsilon, keep_history=keep_history)
    if n == 0:
        return tracker.finish(np.zeros(0), True)
    if availability is None:
        availability = AllLive(num_peers)
    rank = initial
    stats = np.zeros((1, N_STAT_COLS), dtype=np.float64)
    state = WorkerState(
        damping=damping, epsilon=epsilon,
        views={
            "rank": rank, "published": rank.copy(),
            "active": np.zeros(n, dtype=bool), "stats": stats,
        },
        workspace=workspace, indptr=indptr, assignment=assignment,
        cross_edge=cross_edge, fault_plans=[fault_plan], shift=shift,
    )
    runner = ShardRunner(state)
    obs = _CoreInstruments(get_registry())
    sink = get_trace_sink()

    def record(t: int, live_peers: int) -> None:
        obs.passes.inc()
        obs.live_peers.set(live_peers)
        if not live_peers:
            obs.dead_passes.inc()
            tracker.record(pass_stats(stats, t, 0))
            return
        ps = pass_stats(stats, t, live_peers)
        resent = int(stats[:, COL_RESENT].sum())
        obs.updates.inc(ps.active_documents)
        obs.messages.inc(ps.messages)
        obs.deferred.inc(ps.deferred_messages)
        obs.resent.inc(resent)
        obs.dropped.inc(int(stats[:, COL_DROPPED].sum()))
        obs.residual.set(ps.max_rel_change)
        obs.active.set(ps.active_documents)
        if sink.enabled:
            sink.event(
                "core.pass", pass_index=t, residual=ps.max_rel_change,
                active_documents=ps.active_documents,
                messages=ps.messages, deferred=ps.deferred_messages,
                resent=resent, live_peers=live_peers,
            )
        tracker.record(ps)

    with sink.span("core.run", documents=n, peers=num_peers, epsilon=epsilon):
        converged = run_shards(
            [runner], state=state, max_passes=max_passes, num_peers=num_peers,
            record=record, availability=availability,
            max_dead_passes=max_dead_passes, on_pass=on_pass,
            pass_timer=obs.pass_timer,
        )
    return tracker.finish(rank.copy(), converged)


def distributed_pagerank(
    graph: LinkGraph,
    assignment: Optional[np.ndarray] = None,
    *,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-3,
    max_passes: int = 100_000,
    availability: Optional[AvailabilityModel] = None,
) -> RunReport:
    """One-shot convenience wrapper around :class:`ChaoticPagerank`.

    Equivalent to constructing the engine and calling
    :meth:`ChaoticPagerank.run`; see that class for parameter details.
    """
    engine = ChaoticPagerank(
        graph, assignment, damping=damping, epsilon=epsilon
    )
    return engine.run(max_passes=max_passes, availability=availability)


def scheduled_pagerank(
    graph: LinkGraph,
    assignment: Optional[np.ndarray] = None,
    *,
    schedule: Sequence[float] = (1e-2, 1e-4),
    num_peers: Optional[int] = None,
    damping: float = DEFAULT_DAMPING,
    max_passes: int = 100_000,
) -> RunReport:
    """Progressive ε-tightening: run coarse first, then warm-start finer.

    An optimisation beyond the paper: early passes at a loose threshold
    let near-converged documents mute themselves sooner, and each
    refinement stage starts from the previous fixed point instead of
    the flat initial vector.  Measured on §4.1 graphs: the two-stage
    default saves ~15-20 % of the update messages of a direct run at
    the final ε, at equal solution quality
    (``benchmarks/test_ablation_schedule.py``).

    Parameters
    ----------
    schedule:
        Strictly decreasing ε sequence; the final entry is the target
        threshold (and the returned report's ``epsilon``).
    max_passes:
        Budget shared across all stages.

    Returns
    -------
    RunReport
        Totals aggregated over every stage; ``history`` concatenates
        the stages' pass records with continuous pass indices.
    """
    schedule = tuple(float(e) for e in schedule)
    if not schedule:
        raise ValueError("schedule must contain at least one epsilon")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be strictly decreasing, got {schedule}")

    ranks: Optional[np.ndarray] = None
    total_messages = 0
    total_passes = 0
    history: List[PassStats] = []
    converged = False
    for eps in schedule:
        engine = ChaoticPagerank(
            graph, assignment, num_peers=num_peers, damping=damping, epsilon=eps
        )
        budget = max_passes - total_passes
        if budget < 1:
            converged = False
            break
        report = engine.run(max_passes=budget, initial_ranks=ranks)
        history.extend(
            replace(stats, pass_index=total_passes + stats.pass_index)
            for stats in report.history
        )
        total_messages += report.total_messages
        total_passes += report.passes
        ranks = report.ranks
        converged = report.converged
        if not converged:
            break
    assert ranks is not None
    return RunReport(
        ranks=ranks,
        passes=total_passes,
        converged=converged,
        total_messages=total_messages,
        history=tuple(history),
        epsilon=schedule[-1],
    )
