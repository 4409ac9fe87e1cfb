"""Worker processes of the multi-process backend.

Each worker OS process attaches the run's
:class:`repro.parallel.state.SharedArena`, rebuilds the same derived
context every party holds (:func:`build_worker_state`), and drives its
round-robin share of the shards through the barrier-separated pass
loops below.  The per-shard pass step itself — the ε-gate, frontier
and §3.1 resend/deliver/defer/park logic — is
:class:`repro.core.shard.ShardRunner`, the same code the serial engine
runs over one whole-graph shard (docs/PERFORMANCE.md "Sharded
execution model").
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.kernels import CSRWorkspace
from repro.core.shard import (
    COL_PUBLISHED,
    AvailabilityModel,
    ShardPlan,
    ShardRunner,
    WorkerState,
    build_shard_plan,
    churn_should_stop,
    cross_peer_edges,
    static_pass_is_dense,
    static_should_stop,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs.linkgraph import LinkGraph
from repro.parallel.state import PlacedSpec, SharedArena

__all__ = [
    "RunConfig",
    "build_worker_state",
    "published_regions",
    "worker_main",
]

#: Parent/worker barrier rendezvous budget before declaring a hang.
BARRIER_TIMEOUT_S = 300.0


@dataclass(frozen=True)
class RunConfig:
    """Everything a worker process needs besides the shared arrays.

    Picklable by construction (spawn-safe): the availability model is
    an identically seeded *copy* in every party, so each draws the very
    same mask sequence without any coordination.
    """

    num_docs: int
    num_peers: int
    shards: int
    workers: int
    damping: float
    epsilon: float
    max_passes: int
    mode: str  # "static" | "churn"
    max_dead_passes: int = 50
    fault_spec: Optional[FaultSpec] = None
    fault_seed: int = 0
    availability: Optional[AvailabilityModel] = None


def _shard_fault_plans(cfg: RunConfig) -> List[Optional[FaultPlan]]:
    """Seeded per-shard fault streams.

    One shard keeps the raw seed so a ``shards=1`` run replays the
    serial engine's exact draw sequence; more shards split the stream
    via ``SeedSequence.spawn`` — deterministic per ``(seed, shards)``
    and independent of worker count.
    """
    if cfg.fault_spec is None:
        return [None] * cfg.shards
    if cfg.shards == 1:
        return [FaultPlan(cfg.fault_spec, seed=cfg.fault_seed)]
    children = np.random.SeedSequence(cfg.fault_seed).spawn(cfg.shards)
    return [
        FaultPlan(cfg.fault_spec, seed=children[s]) for s in range(cfg.shards)
    ]


def build_worker_state(
    cfg: RunConfig, views: Dict[str, np.ndarray]
) -> WorkerState:
    """Derive the per-party context from the shared arrays.

    Every party runs this independently over the same bytes, so the
    derived structures (reverse CSR, shard plan, cross-peer and
    cross-shard out-degrees) are identical everywhere.
    """
    indptr = views["indptr"]
    indices = views["indices"]
    assignment = views["assignment"]
    ws = CSRWorkspace.from_graph(LinkGraph(indptr, indices, validate=False))
    cross, remote_outdeg = cross_peer_edges(ws, assignment)
    return WorkerState(
        damping=cfg.damping,
        epsilon=cfg.epsilon,
        churn=cfg.mode == "churn",
        views=views,
        workspace=ws,
        indptr=indptr,
        indices=indices,
        assignment=assignment,
        cross_edge=cross,
        remote_outdeg=remote_outdeg,
        fault_plans=_shard_fault_plans(cfg),
        plan=build_shard_plan(assignment, cfg.num_peers, cfg.shards),
    )


def published_regions(
    views: Dict[str, np.ndarray], plan: ShardPlan, stats: np.ndarray
) -> List[np.ndarray]:
    """Every shard's published ids of the previous pass, read from its
    region of the shared published-ids array."""
    published = views["published"]
    offsets = plan.row_offsets
    return [
        published[offsets[s]: offsets[s] + int(stats[s, COL_PUBLISHED])]
        for s in range(plan.shards)
    ]


# ----------------------------------------------------------------------
# Worker process body (the "process" backend)
# ----------------------------------------------------------------------
def _loop_static(
    runners: Sequence[ShardRunner],
    state: WorkerState,
    cfg: RunConfig,
    barrier_a,
    barrier_b,
) -> None:
    stats = state.views["stats"]
    region = state.views["published"]
    plan = state.plan
    assert plan is not None
    n = cfg.num_docs
    prev_published = 0
    for t in range(cfg.max_passes):
        dense = static_pass_is_dense(t, prev_published, n)
        published_global = (
            None if dense
            else np.concatenate(published_regions(state.views, plan, stats))
        )
        for runner in runners:
            runner.static_compute(t, dense, published_global)
        barrier_a.wait(BARRIER_TIMEOUT_S)
        for runner in runners:
            runner.static_publish()
            start = int(plan.row_offsets[runner.shard])
            region[start: start + runner.published.size] = runner.published
        barrier_b.wait(BARRIER_TIMEOUT_S)
        prev_published = int(stats[:, COL_PUBLISHED].sum())
        if static_should_stop(stats):
            break


def _loop_churn(
    runners: Sequence[ShardRunner],
    state: WorkerState,
    cfg: RunConfig,
    barrier_a,
    barrier_b,
) -> None:
    stats = state.views["stats"]
    availability = cfg.availability
    assert availability is not None
    # Three rendezvous per churn pass (A, B, A again — barriers reset
    # once every party passes, so reuse is safe as long as every party
    # performs the identical wait sequence):
    #   private compute -> A -> publish own rank/active -> B ->
    #   deliver + stats -> A -> (parent records; stop decision)
    # The extra rendezvous keeps the parent's read window (between the
    # last wait and the next pass's first wait) free of shared writes.
    dead_streak = 0
    for t in range(cfg.max_passes):
        live_peer = np.asarray(availability.sample(t), dtype=bool)
        if not live_peer.any():
            dead_streak += 1
            barrier_a.wait(BARRIER_TIMEOUT_S)
            barrier_b.wait(BARRIER_TIMEOUT_S)
            for runner in runners:
                runner.churn_dead_pass(t)
            barrier_a.wait(BARRIER_TIMEOUT_S)
            if dead_streak >= cfg.max_dead_passes:
                # Every party detects the same starvation at the same
                # pass; the parent raises, workers just stand down.
                break
            continue
        dead_streak = 0
        for runner in runners:
            runner.churn_compute(t, live_peer)
        barrier_a.wait(BARRIER_TIMEOUT_S)
        for runner in runners:
            runner.churn_publish()
        barrier_b.wait(BARRIER_TIMEOUT_S)
        for runner in runners:
            runner.churn_deliver(t, live_peer)
        barrier_a.wait(BARRIER_TIMEOUT_S)
        if churn_should_stop(stats):
            break


def worker_main(
    worker_id: int,
    cfg: RunConfig,
    shm_name: str,
    layout: List[PlacedSpec],
    barrier_a,
    barrier_b,
    errors,
    untrack_shm: bool = False,
) -> None:
    """Worker process entry point (top-level so ``spawn`` can pickle it).

    Attaches the shared arena by name, rebuilds the identical derived
    context every party holds, and runs the pass loop for this worker's
    round-robin shard set.  Any failure is reported through ``errors``
    and both barriers are aborted so no party deadlocks.
    """
    import threading

    arena = SharedArena.attach(shm_name, layout, untrack=untrack_shm)
    try:
        state = build_worker_state(cfg, arena.views())
        assert state.plan is not None
        runners = [
            ShardRunner(state, s)
            for s in state.plan.shards_of_worker(worker_id, cfg.workers)
        ]
        loop = _loop_static if cfg.mode == "static" else _loop_churn
        loop(runners, state, cfg, barrier_a, barrier_b)
    except threading.BrokenBarrierError:  # pragma: no cover - peer failed
        pass
    except Exception:  # pragma: no cover - exercised via machinery tests
        errors.put((worker_id, traceback.format_exc()))
        barrier_a.abort()
        barrier_b.abort()
    finally:
        arena.close()
