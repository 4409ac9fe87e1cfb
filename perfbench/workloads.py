"""The four benchmark workloads: inputs, timed solve, output checks.

Each workload builds its inputs from a seed, runs its timed solves (or
serving session), and checks the result.  The link graph (the serve
corpus, for ``serve-5k``) is a pinned dataset generated with
``DATASET_SEED``, the seed ``BENCH_pagerank.json`` pins; the run seed
draws everything else — document placement, churn, message loss and
the query stream — with the same per-stream offsets ``repro bench``
uses, so ``--seed 7`` rebuilds the committed bench rows exactly.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List

import numpy as np

__all__ = [
    "DATASET_SEED",
    "SEED_STRIDE",
    "RANK_ERR_ENVELOPE",
    "CROSS_CHECK",
    "WORKLOADS",
    "Outcome",
    "Sizes",
    "sizes_for",
    "preload",
    "build",
    "solve",
    "check",
]

#: Seed of the pinned graph / corpus (the seed of BENCH_pagerank.json's rows).
DATASET_SEED = 7
EPSILON = 1e-4
CHURN_AVAILABILITY = 0.75
MAX_PASSES = 5_000
#: p99 relative rank error allowed against the centralized solve; the
#: envelope the repo's differential tests use.
RANK_ERR_ENVELOPE = 5e-3
#: (passes, update messages, update bytes) of the committed seed-7 rows
#: ``sim_100k_loss0_stable`` and ``sim_10k_loss20_churn``.
CROSS_CHECK = {
    "sim-100k": (37, 629_301, 15_103_224),
    "sim-10k-lossy-churn": (184, 102_162, 2_451_888),
}
REFERENCE_DIR = os.path.join("perfbench", "out")

Span = Callable[[str], ContextManager]


def _no_span(name: str) -> ContextManager:
    return nullcontext()


@dataclass(frozen=True)
class Sizes:
    docs: int
    peers: int
    qps: float = 0.0
    duration: float = 0.0


@dataclass(frozen=True)
class Workload:
    full: Sizes
    tiny: Sizes
    #: Independent instances per iteration (seeds ``seed + SEED_STRIDE * j``);
    #: more than one where a single instance's protocol numbers swing
    #: with its random streams.
    instances: int = 1
    #: Set-ups per instance; several where one set-up is too short to time.
    setups: int = 1
    #: How strongly the workload's speed follows the host-speed probe's
    #: (probe.py); fitted from its iterations' wall times and paces.
    sensitivity: float = 1.0


SEED_STRIDE = 1009
WORKLOADS: Dict[str, Workload] = {
    "sim-100k": Workload(Sizes(100_000, 500), Sizes(1_000, 20), setups=3, sensitivity=0.65),
    "sim-10k-lossy-churn": Workload(
        Sizes(10_000, 100), Sizes(500, 10), instances=5, setups=3, sensitivity=0.85
    ),
    "vec-1m": Workload(Sizes(1_000_000, 500), Sizes(2_000, 20), sensitivity=0.55),
    "serve-5k": Workload(
        Sizes(5_000, 100, 2_000.0, 5.0), Sizes(300, 10, 200.0, 2.0), setups=2, sensitivity=1.3
    ),
}


def sizes_for(workload: str, tiny: bool) -> Sizes:
    spec = WORKLOADS[workload]
    return spec.tiny if tiny else spec.full


@dataclass
class Instance:
    workload: str
    seed: int
    sizes: Sizes
    graph: object
    engine: object
    availability: object = None
    config: object = None


@dataclass
class Outcome:
    """What one instance produced, and which of its checks failed."""

    passes: int
    update_msgs: int
    update_bytes: int
    wire_bytes: int
    #: Relative error of every final rank of every solve.
    rel_err: np.ndarray
    digest: str
    attempted: int
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Query latencies in seconds (serve-5k only).
    latency_s: List[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# Inputs (the untimed set-up)
# ----------------------------------------------------------------------
def preload() -> None:
    """Import every module the workloads use, so set-up times measure
    building inputs rather than first imports."""
    import repro.core  # noqa: F401
    import repro.faults.plan  # noqa: F401
    import repro.faults.transport  # noqa: F401
    import repro.graphs  # noqa: F401
    import repro.p2p.routing  # noqa: F401
    import repro.serve.loadgen  # noqa: F401
    import repro.serve.service  # noqa: F401
    import repro.simulation  # noqa: F401


def build(workload: str, seed: int, sizes: Sizes, span: Span = _no_span) -> Instance:
    """Build every input of one instance: graph, placement, network,
    and engine or session."""
    if workload == "serve-5k":
        return _build_serve(seed, sizes, span)
    from repro.graphs import broder_graph
    from repro.p2p import DocumentPlacement, FixedFractionChurn

    with span("graphs.build"):
        graph = broder_graph(sizes.docs, seed=DATASET_SEED)
    with span("p2p.place"):
        placement = DocumentPlacement.random(sizes.docs, sizes.peers, seed=seed + 1)
        if workload == "vec-1m":
            from repro.core import ChaoticPagerank

            engine = ChaoticPagerank(
                graph, placement.assignment, num_peers=sizes.peers, epsilon=EPSILON
            )
        else:
            engine = _build_simulation(workload, seed, sizes, graph, placement)
    availability = None
    if workload in ("sim-10k-lossy-churn", "vec-1m"):
        availability = FixedFractionChurn(sizes.peers, CHURN_AVAILABILITY, seed=seed + 2)
    return Instance(workload, seed, sizes, graph, engine, availability)


def _build_simulation(workload, seed, sizes, graph, placement):
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.p2p import P2PNetwork
    from repro.p2p.routing import CachedDirectDelivery
    from repro.simulation import P2PPagerankSimulation

    lossy = workload == "sim-10k-lossy-churn"
    # The lossy workload also prices §3.2 DHT delivery hops (location
    # cache over the Chord ring); hop pricing leaves message counts as
    # they are, so the committed seed-7 counts still apply.
    network = P2PNetwork(sizes.peers, placement, build_ring=lossy)
    return P2PPagerankSimulation(
        graph,
        network,
        epsilon=EPSILON,
        faults=FaultPlan(FaultSpec(drop_rate=0.2), seed=seed + 3) if lossy else None,
        delivery_policy=CachedDirectDelivery(network.ring) if lossy else None,
    )


def _build_serve(seed: int, sizes: Sizes, span: Span) -> Instance:
    from repro._util.rng import as_generator
    from repro.serve.service import ServeConfig, ServeSession

    config = ServeConfig(
        docs=sizes.docs,
        peers=sizes.peers,
        seed=DATASET_SEED,
        qps=sizes.qps,
        duration=sizes.duration,
        epsilon=EPSILON,
    )
    with span("p2p.place"):
        session = ServeSession(config)
    # The corpus, placement, runtime and the pool of distinct queries
    # are the pinned dataset; the seed draws the open-loop arrival
    # stream (times, Zipf picks from the pool, portal peers) with
    # ServeSession's own offset.  A seeded pool would let one stream's
    # hot query saturate its entry peer until queries drop.
    session.loadgen._rng = as_generator(seed + 3)
    return Instance("serve-5k", seed, sizes, session.corpus.link_graph, session, config=config)


# ----------------------------------------------------------------------
# The timed region
# ----------------------------------------------------------------------
def solve(inst: Instance, timed: Callable[[], ContextManager]) -> List[object]:
    """Run the instance's solves, each inside ``timed()``; returns their
    reports: one serving session, one simulator run, or (``vec-1m``) an
    all-up solve and then a churn solve on the same engine."""
    if inst.workload == "serve-5k":
        with timed():
            report = inst.engine.run()
        return [report]
    runs = (None, inst.availability) if inst.workload == "vec-1m" else (inst.availability,)
    out = []
    for availability in runs:
        with timed():
            report = inst.engine.run(
                availability=availability, keep_history=False, max_passes=MAX_PASSES
            )
        out.append(report)
    return out


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def reference_ranks(inst: Instance) -> np.ndarray:
    """Centralized ranks of the pinned graph (Table 2's baseline),
    cached under ``perfbench/out`` — they depend on the dataset only."""
    from repro.core import pagerank_reference

    n = inst.graph.num_nodes
    path = os.path.join(REFERENCE_DIR, f"ref-{inst.workload}-{n}-{DATASET_SEED}.npy")
    if os.path.exists(path):
        ref = np.load(path)
        if ref.shape == (n,):
            return ref
    ref = pagerank_reference(inst.graph).ranks
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp.npy"
    np.save(tmp, ref)
    os.replace(tmp, path)
    return ref


def p99(values: np.ndarray) -> float:
    return float(np.percentile(values, 99))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _scheduled_arrival(record, config) -> float:
    """The query's first scheduled arrival: a shed query is re-offered
    after the admission backoff, and its record keeps only the time of
    the last offer."""
    from repro.faults.transport import ReliabilityConfig

    backoff = ReliabilityConfig()
    waited = sum(
        backoff.retry_delay(a) * config.retry_scale for a in range(1, record.attempts)
    )
    return record.arrival_time - waited


def check(inst: Instance, reports: List[object], tiny: bool) -> Outcome:
    """Derive the instance's protocol numbers and check its outputs."""
    from repro.p2p.messages import ACK_SIZE_BYTES, MESSAGE_SIZE_BYTES

    ref = reference_ranks(inst)
    failures: List[str] = []
    if inst.workload == "serve-5k":
        (report,) = reports
        rt = report.runtime
        failures += [f"serve invariant: {p}" for p in report.verify_invariants(inst.config)]
        if not rt.converged:
            failures.append("serve runtime did not certify convergence")
        rel_err = np.abs(rt.ranks - ref) / ref
        outcome = Outcome(
            passes=rt.rounds,
            update_msgs=rt.messages,
            update_bytes=rt.messages * MESSAGE_SIZE_BYTES,
            wire_bytes=rt.messages * MESSAGE_SIZE_BYTES
            + rt.acks * ACK_SIZE_BYTES
            + report.bytes_on_wire,
            rel_err=rel_err,
            digest=report.digest,
            attempted=report.offered,
            latency_s=[
                r.finish_time - _scheduled_arrival(r, inst.config)
                for r in report.records
                if not r.dropped
            ],
        )
        if p99(rel_err) >= RANK_ERR_ENVELOPE:
            failures.append(f"rank_err_p99 {p99(rel_err):.3g} outside {RANK_ERR_ENVELOPE}")
        outcome.failures = failures
        outcome.failed = report.offered if failures else report.dropped
        return outcome

    failed = 0
    errors = []
    for i, report in enumerate(reports):
        err = np.abs(report.ranks - ref) / ref
        errors.append(err)
        bad = []
        if not report.converged:
            bad.append(f"seed {inst.seed} solve {i}: not certified converged")
        if p99(err) >= RANK_ERR_ENVELOPE:
            bad.append(f"seed {inst.seed} solve {i}: rank_err_p99 {p99(err):.3g} "
                       f"outside {RANK_ERR_ENVELOPE}")
        failures += bad
        failed += bool(bad)
    if inst.workload == "vec-1m":
        passes = sum(r.passes for r in reports)
        updates = sum(r.total_messages for r in reports)
        update_bytes = wire = updates * MESSAGE_SIZE_BYTES
    else:
        sim = inst.engine
        passes = reports[0].passes
        updates = sim.traffic.update_messages
        update_bytes = sim.traffic.bytes_transferred
        acks = sim.transport.stats.acks_sent if sim.transport is not None else 0
        wire = update_bytes + acks * ACK_SIZE_BYTES
    expected = CROSS_CHECK.get(inst.workload)
    if expected is not None and inst.seed == DATASET_SEED and not tiny:
        got = (passes, updates, update_bytes)
        if got != expected:
            failures.append(
                f"seed-{DATASET_SEED} cross-check: (passes, updates, bytes) {got} "
                f"!= BENCH_pagerank.json {expected}"
            )
            failed = len(reports)
    return Outcome(
        passes=passes,
        update_msgs=updates,
        update_bytes=update_bytes,
        wire_bytes=wire,
        rel_err=np.concatenate(errors),
        digest=_digest(*(r.ranks for r in reports)),
        attempted=len(reports),
        failed=failed,
        failures=failures,
    )
