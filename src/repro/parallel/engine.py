"""Multi-process sharded execution engine for chaotic PageRank.

:class:`ParallelPagerank` runs the same chaotic iteration as
:class:`repro.core.distributed.ChaoticPagerank` (§2.3, Figure 1;
churn/faults per §3.1) but partitions the peer population into shards
executed by parallel worker OS processes over a shared-memory arena
(docs/PERFORMANCE.md "Sharded execution model").  Determinism
contract:

* fixed shard count → results are bit-for-bit identical at **any**
  worker count (shards, not workers, key the per-shard RNG streams);
* ``workers=1, shards=1`` → bit-for-bit identical to the serial
  engine, including under injected loss and churn;
* a run with every peer up and no faults is bit-identical to the
  serial engine at every shard count.

Cross-shard exchange is priced like the paper's message accounting
(§4.6.1's 24-byte updates): one delta, one hop, per delivery whose
sender lives in a different shard than its receiver.
The ``in-process`` backend drives the identical per-shard code on one
thread (useful for tests and coverage); ``process`` is the real
multi-process backend; ``auto`` picks ``process`` when ``workers > 1``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro._util import check_positive, check_threshold
from repro.core.convergence import ConvergenceTracker, RunReport
from repro.core.kernels import CSRWorkspace
from repro.core.pagerank import DEFAULT_DAMPING
from repro.core.shard import (
    COL_COMPUTE_S,
    COL_CUT,
    N_STAT_COLS,
    AllLive,
    AvailabilityModel,
    PassObserver,
    ShardPlan,
    ShardRunner,
    WorkerState,
    build_shard_plan,
    check_run_budget,
    cross_peer_edges,
    initial_rank_vector,
    pass_stats,
    resolve_assignment,
    run_shards,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs.linkgraph import LinkGraph
from repro.obs import MetricsRegistry, TimerMetric, get_registry
from repro.p2p.messages import MESSAGE_SIZE_BYTES
from repro.parallel.state import ArraySpec, SharedArena
from repro.parallel.worker import BARRIER_TIMEOUT_S, worker_main

__all__ = ["ParallelPagerank", "ExchangeStats"]

_BACKENDS = ("auto", "in-process", "process")


@dataclass(frozen=True)
class ExchangeStats:
    """Cross-shard traffic of one parallel run, priced like Eq. 4's
    message accounting: one 24-byte delta, and one hop, per delivered
    rank crossing a shard boundary."""

    messages: int
    bytes_on_wire: int
    hops: int


@dataclass
class _Tally:
    """Running totals of one run's cross-shard exchange and compute."""

    messages: int = 0
    compute: float = 0.0


class _ParallelInstruments:
    """Registry handles for the parallel engine's emissions (no-ops
    under the default disabled registry; docs/OBSERVABILITY.md §12)."""

    __slots__ = (
        "passes", "exchange_messages", "exchange_bytes", "exchange_hops",
        "barrier_wait", "compute", "utilization", "imbalance", "workers",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.passes = reg.counter(
            "parallel.passes", unit="passes",
            description="sharded-engine passes executed",
        )
        self.exchange_messages = reg.counter(
            "parallel.exchange_messages", unit="messages",
            description="rank deltas exchanged across shard boundaries",
        )
        self.exchange_bytes = reg.counter(
            "parallel.exchange_bytes", unit="bytes",
            description="cross-shard exchange volume at 24 B per delta",
        )
        self.exchange_hops = reg.counter(
            "parallel.exchange_hops", unit="hops",
            description="hops of the cross-shard exchange, one per delta",
        )
        self.barrier_wait = reg.timer(
            "parallel.barrier_wait_seconds",
            description="parent wall-clock seconds blocked on the pass "
                        "barrier, one observation per computed pass",
        )
        self.compute = reg.histogram(
            "parallel.compute_seconds", unit="seconds",
            description="summed per-shard compute seconds, one observation per pass",
        )
        self.utilization = reg.gauge(
            "parallel.worker_utilization", unit="ratio",
            description="shard compute seconds / (workers x run wall seconds)",
        )
        self.imbalance = reg.gauge(
            "parallel.shard_imbalance", unit="ratio",
            description="largest shard's documents / mean documents per shard",
        )
        self.workers = reg.gauge(
            "parallel.workers", unit="workers",
            description="worker processes of the latest run",
        )


class ParallelPagerank:
    """Sharded multi-process chaotic-iteration engine.

    Parameters mirror :class:`~repro.core.distributed.ChaoticPagerank`
    plus the execution geometry:

    workers:
        Worker OS processes (capped at the shard count — an idle
        worker would only add barrier latency).
    shards:
        Partition granularity; defaults to the (capped) worker count.
        Results are keyed on shards, never on workers.
    backend:
        ``"process"`` (real worker processes), ``"in-process"``
        (identical per-shard code on one thread), or ``"auto"``
        (process when ``workers > 1``).

    Examples
    --------
    >>> from repro.graphs import cycle_graph
    >>> engine = ParallelPagerank(cycle_graph(6), workers=2, epsilon=1e-6,
    ...                           backend="in-process")
    >>> report = engine.run()
    >>> bool(report.converged)
    True
    """

    def __init__(
        self,
        graph: LinkGraph,
        assignment: Optional[np.ndarray] = None,
        *,
        num_peers: Optional[int] = None,
        workers: int = 1,
        shards: Optional[int] = None,
        damping: float = DEFAULT_DAMPING,
        epsilon: float = 1e-3,
        init_rank: float = 1.0,
        backend: str = "auto",
    ) -> None:
        check_threshold("damping", damping)
        check_threshold("epsilon", epsilon)
        check_positive("init_rank", init_rank)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.graph = graph
        self.damping = float(damping)
        self.epsilon = float(epsilon)
        self.init_rank = float(init_rank)
        self.backend = backend

        self.assignment, self.num_peers = resolve_assignment(
            graph.num_nodes, assignment, num_peers
        )
        peers = max(self.num_peers, 1)
        self.plan: ShardPlan = build_shard_plan(
            self.assignment, peers, min(workers, peers) if shards is None else shards
        )
        self.shards = self.plan.shards
        self.workers = min(int(workers), self.shards)
        # The derived per-run context every party shares, built once:
        # each run copies it with its own fault streams and views.
        workspace = CSRWorkspace.from_graph(graph)
        self._context = WorkerState(
            damping=self.damping, epsilon=self.epsilon, views={},
            workspace=workspace, indptr=graph.indptr, assignment=self.assignment,
            cross_edge=cross_peer_edges(workspace, self.assignment),
            fault_plans=[None] * self.shards, plan=self.plan,
        )
        #: Cross-shard exchange of the most recent run.
        self.last_exchange: Optional[ExchangeStats] = None
        #: Compute-seconds / (workers x wall) of the most recent run.
        self.last_utilization: float = 0.0

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_passes: int = 100_000,
        availability: Optional[AvailabilityModel] = None,
        initial_ranks: Optional[np.ndarray] = None,
        keep_history: bool = True,
        on_pass: Optional[PassObserver] = None,
        fault_spec: Optional[FaultSpec] = None,
        fault_seed: int = 0,
        max_dead_passes: int = 50,
    ) -> RunReport:
        """Iterate to the strong convergence criterion or the budget.

        Faults are specified as a picklable :class:`FaultSpec` plus a
        ``fault_seed`` (not a live :class:`~repro.faults.plan.FaultPlan`)
        because every shard derives its own seeded stream: one shard
        replays the serial plan's exact sequence, several shards split
        the seed via ``SeedSequence.spawn``.
        """
        check_run_budget(max_passes, max_dead_passes)
        n = self.graph.num_nodes
        tracker = ConvergenceTracker(self.epsilon, keep_history=keep_history)
        if n == 0:
            self.last_exchange = ExchangeStats(0, 0, 0)
            return tracker.finish(np.zeros(0), True)

        if availability is None:
            availability = AllLive(self.num_peers)
        rank0 = initial_rank_vector(n, self.init_rank, initial_ranks)
        backend = self.backend
        if backend == "auto":
            backend = "process" if self.workers > 1 else "in-process"

        obs = _ParallelInstruments(get_registry())
        sizes = np.diff(self.plan.row_offsets).astype(np.float64)
        obs.imbalance.set(float(sizes.max() / sizes.mean()) if sizes.mean() else 1.0)
        obs.workers.set(self.workers if backend == "process" else 1)

        # Every party runs this loop.  Each holds its own identically
        # seeded copy of the availability model: under fork the
        # workers' copies snapshot the same pre-run RNG state, under
        # spawn they are pickled from it.
        loop = partial(
            run_shards, max_passes=max_passes, num_peers=self.plan.num_peers,
            availability=availability, max_dead_passes=max_dead_passes,
        )
        state = replace(
            self._context,
            fault_plans=_shard_fault_plans(fault_spec, fault_seed, self.shards),
        )
        with ExitStack() as stack:
            sync: Optional[Callable[[], None]] = None
            barrier_timer: Optional[TimerMetric] = None
            if backend == "process":
                state, sync = stack.enter_context(
                    self._worker_processes(state, loop, rank0)
                )
                # With no shards of its own, the parent's pass is its
                # barrier waits.
                barrier_timer = obs.barrier_wait
                runners: List[ShardRunner] = []
            else:
                state = replace(state, views=_reset_views(
                    {name: np.empty(shape, dtype) for name, dtype, shape
                     in self._shared_specs()},
                    rank0,
                ))
                runners = [ShardRunner(state, s) for s in range(self.shards)]
            tally = _Tally()

            def record(t: int, live_peers: int) -> None:
                self._record(state, tally, tracker, obs, t, live_peers)

            t_start = perf_counter()
            converged = loop(
                runners, state=state, record=record, on_pass=on_pass,
                pass_timer=barrier_timer, sync=sync,
            )
            return self._finish(
                tracker, state.views["rank"], converged, obs, tally,
                perf_counter() - t_start,
            )

    # ------------------------------------------------------------------
    # Parent-side bookkeeping
    # ------------------------------------------------------------------
    def _shared_specs(self) -> List[ArraySpec]:
        """The arrays parties write, one region per shard where split."""
        n = self.graph.num_nodes
        return [
            ("rank", "float64", (n,)),
            ("published", "float64", (n,)),
            ("active", "bool", (n,)),
            ("stats", "float64", (self.shards, N_STAT_COLS)),
        ]

    def _record(
        self,
        state: WorkerState,
        tally: _Tally,
        tracker: ConvergenceTracker,
        obs: _ParallelInstruments,
        t: int,
        live_peers: int,
    ) -> None:
        """Account one pass: cross-shard exchange, compute seconds and
        the pass record (a skipped all-down pass adds no exchange)."""
        stats = state.views["stats"]
        cut = int(stats[:, COL_CUT].sum())
        compute = float(stats[:, COL_COMPUTE_S].sum())
        tally.messages += cut
        tally.compute += compute
        obs.passes.inc()
        obs.compute.observe(compute)
        tracker.record(pass_stats(stats, t, live_peers))

    def _finish(
        self,
        tracker: ConvergenceTracker,
        rank: np.ndarray,
        converged: bool,
        obs: _ParallelInstruments,
        tally: _Tally,
        wall: float,
    ) -> RunReport:
        exchange = ExchangeStats(
            messages=tally.messages,
            bytes_on_wire=tally.messages * MESSAGE_SIZE_BYTES,
            hops=tally.messages,
        )
        self.last_exchange = exchange
        denom = self.workers * wall
        self.last_utilization = tally.compute / denom if denom > 0 else 0.0
        obs.exchange_messages.inc(exchange.messages)
        obs.exchange_bytes.inc(exchange.bytes_on_wire)
        obs.exchange_hops.inc(exchange.hops)
        obs.utilization.set(self.last_utilization)
        return tracker.finish(rank.copy(), converged)

    # ------------------------------------------------------------------
    # Process backend: worker OS processes over the shared arena
    # ------------------------------------------------------------------
    @contextmanager
    def _worker_processes(
        self,
        state: WorkerState,
        loop: Callable[..., bool],
        rank0: np.ndarray,
    ) -> Iterator[Tuple[WorkerState, Callable[[], None]]]:
        """Start the workers over a fresh shared arena.  Yields the
        parent's view of the run and the phase rendezvous every party
        shares: a wait on one reusable barrier."""
        start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(start_method)
        arena = SharedArena.create(self._shared_specs())
        procs: List[mp.process.BaseProcess] = []
        barrier = ctx.Barrier(self.workers + 1)
        errors = ctx.Queue()
        try:
            _reset_views(arena.views(), rank0)
            for w in range(self.workers):
                # ``state`` carries no views yet: fork inherits it
                # without a copy, spawn pickles only the derived context.
                proc = ctx.Process(
                    target=worker_main,
                    args=(
                        w, self.plan.shards_of_worker(w, self.workers), state,
                        loop, arena.name, arena.layout, barrier, errors,
                        start_method == "spawn",
                    ),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)

            try:
                yield (
                    replace(state, views=arena.views()),
                    partial(barrier.wait, BARRIER_TIMEOUT_S),
                )
            except threading.BrokenBarrierError:
                raise self._collect_worker_error(errors)
            finally:
                # Unblock any worker still parked on the barrier (e.g.
                # when the parent errored between waits), then reap.
                barrier.abort()
        finally:
            for proc in procs:
                proc.join(timeout=30.0)
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=5.0)
            arena.close()
            arena.unlink()

    @staticmethod
    def _collect_worker_error(errors) -> RuntimeError:
        tracebacks = []
        try:
            while True:
                worker_id, text = errors.get_nowait()
                tracebacks.append(f"[worker {worker_id}]\n{text}")
        except Exception:
            pass
        detail = "\n".join(tracebacks) if tracebacks else "(no traceback reported)"
        return RuntimeError(f"parallel worker failed:\n{detail}")


def _shard_fault_plans(
    spec: Optional[FaultSpec], seed: int, shards: int
) -> List[Optional[FaultPlan]]:
    """Seeded per-shard fault streams.

    One shard keeps the raw seed so a ``shards=1`` run replays the
    serial engine's exact draw sequence; more shards split the stream
    via ``SeedSequence.spawn`` — deterministic per ``(seed, shards)``
    and independent of worker count.
    """
    if spec is None:
        return [None] * shards
    if shards == 1:
        return [FaultPlan(spec, seed=seed)]
    children = np.random.SeedSequence(seed).spawn(shards)
    return [FaultPlan(spec, seed=children[s]) for s in range(shards)]


def _reset_views(
    views: Dict[str, np.ndarray], rank0: np.ndarray
) -> Dict[str, np.ndarray]:
    """A run's starting state: every shared array zero but the rank and
    published vectors, which start at ``rank0``."""
    for view in views.values():
        view.fill(0)
    views["rank"][:] = rank0
    views["published"][:] = rank0
    return views
