"""The chaotic pass step, one shard at a time (§2.3, Figure 1; §3.1).

This module holds the one implementation of the paper's pass: the
ε-gate, the frontier-selective static pull, and the churn step's
per-edge §3.1 store-and-resend state (resend, deliver, defer, park on
loss).  A :class:`ShardRunner` executes it for one *shard* — a set of
peers and their documents.  :class:`~repro.core.distributed.
ChaoticPagerank` runs the whole graph as a single shard;
:class:`repro.parallel.ParallelPagerank` splits the peers into several
shards (:func:`build_shard_plan`) and drives them from worker OS
processes or on one thread.

Every pass splits into phases a multi-process run separates with
barriers:

* **compute** — read the shared inputs (last-sent values on the static
  path; the shard-private delivered-value edge state on the churn
  path), recompute the shard's rows, and stage the results;
* **publish/deliver** — write the staged results into the shard's own
  disjoint regions of the shared arrays (static), or fold the freshly
  published values of every shard into the private edge state
  (churn), then write the shard's row of the statistics matrix.

All cross-shard writes go to disjoint index ranges, and all
cross-shard reads happen on the far side of a barrier from the writes
they observe.  Each row's in-edges are walked in the same
ascending-source order and summed by the same sequential ``bincount``
whatever the partition, so the static path's values do not depend on
the shard count (docs/PERFORMANCE.md "Sharded execution model").  A
whole-graph shard uses the engine's :class:`CSRWorkspace` and
per-edge arrays as they are, without copies, and its row ids are
document ids.  A teleport preference vector (topic-sensitive ranking,
§7) is data of the step: its per-document shift is added to every
pulled row, on the static and churn paths alike.

The per-pass control decisions (dense or selective pass, stop or go,
starved or not) are pure functions of the statistics matrix and the
availability sample, so every party of a parallel run takes them
independently from the same bytes: no control messages, no
coordinator.  :func:`run_shards` is the one pass loop: every party —
the serial engine's whole-graph shard, the in-thread sharded backend,
each worker process and the parent that only watches — runs it over
its own shards, with a ``sync`` rendezvous between phases.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.core.convergence import PassStats
from repro.core.kernels import CSRWorkspace, expand_rows, relative_change
from repro.faults.plan import FaultPlan

__all__ = [
    "AvailabilityModel",
    "PassObserver",
    "PassRecorder",
    "AllLive",
    "resolve_assignment",
    "initial_rank_vector",
    "check_run_budget",
    "live_mask",
    "StarvationError",
    "starvation_error",
    "COL_ACTIVE",
    "COL_MESSAGES",
    "COL_MAX_CHANGE",
    "COL_COMPUTED",
    "COL_PUBLISHED",
    "COL_DEFERRED",
    "COL_RESENT",
    "COL_DROPPED",
    "COL_PENDING",
    "COL_DIRTY",
    "COL_CUT",
    "COL_COMPUTE_S",
    "N_STAT_COLS",
    "static_pass_is_dense",
    "static_should_stop",
    "churn_should_stop",
    "pass_stats",
    "ShardPlan",
    "build_shard_plan",
    "cross_peer_edges",
    "WorkerState",
    "ShardRunner",
    "run_shards",
]

#: Per-pass observer: called as ``on_pass(pass_index, ranks)`` with a
#: read-only view of the rank vector after each completed pass.
PassObserver = Callable[[int, np.ndarray], None]

#: Per-pass recorder: called as ``record(pass_index, live_peers)`` once
#: every shard's statistics row of the pass is written; ``live_peers``
#: is 0 for a skipped pass with every peer down.
PassRecorder = Callable[[int, int], None]


@runtime_checkable
class AvailabilityModel(Protocol):
    """Anything that can say which peers are up during a pass.

    Implementations live in :mod:`repro.p2p.churn`; the engine only
    requires this one method so tests can pass plain lambdas wrapped in
    tiny shims.
    """

    def sample(self, pass_index: int) -> np.ndarray:
        """Boolean array of length ``num_peers``: True = peer present."""
        ...  # pragma: no cover


class AllLive:
    """Availability model with every peer present every pass.  Routes
    fault-only runs through the churn step; picklable and RNG-free, so
    every party of a parallel run trivially agrees."""

    def __init__(self, num_peers: int) -> None:
        self._mask = np.ones(num_peers, dtype=bool)

    def sample(self, pass_index: int) -> np.ndarray:
        return self._mask


# ----------------------------------------------------------------------
# Argument handling both engines share
# ----------------------------------------------------------------------
def resolve_assignment(
    num_docs: int, assignment: Optional[np.ndarray], num_peers: Optional[int]
) -> Tuple[np.ndarray, int]:
    """Validate a document → peer placement; returns it as int64 plus
    the peer count (``assignment.max() + 1`` unless given).  ``None``
    places every document on its own peer, so every link is a network
    link (the conservative default)."""
    if assignment is None:
        assignment = np.arange(num_docs, dtype=np.int64)
        inferred = num_docs
    else:
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (num_docs,):
            raise ValueError(
                f"assignment must have shape ({num_docs},), got {assignment.shape}"
            )
        if num_docs and assignment.min() < 0:
            raise ValueError("peer ids must be non-negative")
        inferred = int(assignment.max()) + 1 if num_docs else 0
    peers = int(num_peers) if num_peers is not None else inferred
    if num_docs and peers <= int(assignment.max()):
        raise ValueError(
            f"num_peers={peers} too small for assignment max {int(assignment.max())}"
        )
    return assignment, peers


def initial_rank_vector(
    num_docs: int, init_rank: float, initial_ranks: Optional[np.ndarray]
) -> np.ndarray:
    """A fresh rank vector: ``init_rank`` everywhere, or a validated
    copy of the warm-start ``initial_ranks``."""
    if initial_ranks is None:
        return np.full(num_docs, init_rank, dtype=np.float64)
    initial_ranks = np.asarray(initial_ranks, dtype=np.float64)
    if initial_ranks.shape != (num_docs,):
        raise ValueError(
            f"initial_ranks must have shape ({num_docs},), got {initial_ranks.shape}"
        )
    if np.any(initial_ranks <= 0):
        raise ValueError("initial_ranks must be strictly positive")
    return initial_ranks.copy()


def check_run_budget(max_passes: int, max_dead_passes: int) -> None:
    """Reject pass budgets a run could never meaningfully spend."""
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    if max_dead_passes < 1:
        raise ValueError(f"max_dead_passes must be >= 1, got {max_dead_passes}")


def live_mask(
    availability: AvailabilityModel, pass_index: int, num_peers: int
) -> np.ndarray:
    """The availability model's peer mask for one pass, shape-checked."""
    live = np.asarray(availability.sample(pass_index), dtype=bool)
    if live.shape != (num_peers,):
        raise ValueError(
            f"availability.sample must return shape ({num_peers},), "
            f"got {live.shape}"
        )
    return live


class StarvationError(RuntimeError):
    """A run hit ``max_dead_passes`` consecutive passes with zero live
    peers.  A parallel run's workers stop on it quietly; the parent
    raises it."""


def starvation_error(dead_streak: int, pass_index: int) -> StarvationError:
    """The error a run raises after ``max_dead_passes`` consecutive
    passes with zero live peers, instead of stalling silently."""
    return StarvationError(
        f"no live peers for {dead_streak} consecutive "
        f"passes (pass {pass_index}); the availability model "
        "starves the computation — raise availability "
        "or max_dead_passes"
    )


# ----------------------------------------------------------------------
# The statistics matrix and the replicated control decisions
# ----------------------------------------------------------------------
# Column indices of the ``stats`` matrix (one float64 row per shard;
# counts are exact up to 2^53).
COL_ACTIVE = 0      #: documents above epsilon this pass
COL_MESSAGES = 1    #: cross-peer update messages (Table 3 accounting)
COL_MAX_CHANGE = 2  #: max per-document relative change in the shard
COL_COMPUTED = 3    #: documents recomputed (live documents, churn path)
COL_PUBLISHED = 4   #: documents the shard published (static path)
COL_DEFERRED = 5    #: updates stored for absent receivers (§3.1)
COL_RESENT = 6      #: store-and-resend deliveries completed
COL_DROPPED = 7     #: deliveries lost to injected faults
COL_PENDING = 8     #: 1.0 if any edge still holds a parked update
COL_DIRTY = 9       #: 1.0 if any document has an unfolded delivery
COL_CUT = 10        #: published-row out-edges crossing a shard boundary
COL_COMPUTE_S = 11  #: shard compute seconds this pass (metrics only)
N_STAT_COLS = 12


def static_pass_is_dense(
    pass_index: int, prev_published_total: int, num_docs: int
) -> bool:
    """Whether pass ``pass_index`` recomputes every document.

    The first pass is always dense; later passes fall back to dense
    while the previous pass's publisher set would make the selective
    frontier cover most of the graph.
    """
    return pass_index == 0 or 4 * prev_published_total > num_docs


def static_should_stop(stats: np.ndarray) -> bool:
    """Strong convergence on the static path: no document anywhere
    crossed epsilon this pass."""
    return int(stats[:, COL_ACTIVE].sum()) == 0


def churn_should_stop(stats: np.ndarray) -> bool:
    """Strong convergence on the churn path: nothing active, nothing
    parked for an absent peer, nothing delivered-but-not-recomputed."""
    return (
        int(stats[:, COL_ACTIVE].sum()) == 0
        and int(stats[:, COL_PENDING].sum()) == 0
        and int(stats[:, COL_DIRTY].sum()) == 0
    )


def pass_stats(
    stats: np.ndarray,
    pass_index: int,
    live_peers: int,
    computed_documents: Optional[int] = None,
) -> PassStats:
    """One pass's record, summed over every shard's statistics row.
    ``computed_documents`` overrides the recomputed-row count: the
    static path reports every document, since a skipped row would have
    recomputed to the same bits."""
    if computed_documents is None:
        computed_documents = int(stats[:, COL_COMPUTED].sum())
    return PassStats(
        pass_index=pass_index,
        max_rel_change=float(stats[:, COL_MAX_CHANGE].max()),
        active_documents=int(stats[:, COL_ACTIVE].sum()),
        messages=int(stats[:, COL_MESSAGES].sum()),
        deferred_messages=int(stats[:, COL_DEFERRED].sum()),
        live_peers=live_peers,
        computed_documents=computed_documents,
    )


# ----------------------------------------------------------------------
# The partition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """The immutable partition a sharded run executes under.

    Peers split into ``shards`` contiguous blocks and the partition is
    projected onto documents through the placement, so every document
    of one peer lands in one shard — the paper's unit of concurrency.
    It is a pure function of ``(assignment, num_peers, shards)``: no
    RNG, no hashing, no dependence on the worker count, which is what
    lets a run be reproduced bit-for-bit at any worker count (shards,
    not workers, key the per-shard fault streams).

    Attributes
    ----------
    num_docs:
        Documents in the graph.
    num_peers:
        Peer population.
    shards:
        Number of shards (``1 <= shards <= num_peers``).
    peer_shard:
        Shard of every peer (length ``num_peers``); contiguous blocks
        ``peer_shard[p] = p * shards // num_peers``.
    doc_shard:
        Shard of every document — ``peer_shard[assignment]``.
    rows:
        Per-shard sorted document ids (ascending; disjoint; their union
        covers every document).
    row_offsets:
        Exclusive prefix sums of per-shard row counts (length
        ``shards + 1``) — the per-shard regions of a shared
        published-ids array.
    """

    num_docs: int
    num_peers: int
    shards: int
    peer_shard: np.ndarray
    doc_shard: np.ndarray
    rows: Tuple[np.ndarray, ...]
    row_offsets: np.ndarray

    def shards_of_worker(self, worker: int, workers: int) -> Tuple[int, ...]:
        """Shards executed by ``worker`` (round-robin, ascending), so a
        fixed shard count gives identical results at any worker count."""
        return tuple(range(worker, self.shards, workers))


def build_shard_plan(
    assignment: np.ndarray, num_peers: int, shards: int
) -> ShardPlan:
    """Partition peers into ``shards`` contiguous blocks and project the
    partition onto documents through ``assignment``.

    Deterministic and RNG-free; every party of a parallel run (parent
    and workers) rebuilds the identical plan from the same inputs.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if num_peers < 1:
        raise ValueError(f"num_peers must be >= 1, got {num_peers}")
    if not 1 <= shards <= num_peers:
        raise ValueError(
            f"shards must be in [1, num_peers={num_peers}], got {shards}"
        )
    peer_shard = (np.arange(num_peers, dtype=np.int64) * shards) // num_peers
    doc_shard = peer_shard[assignment]
    rows = tuple(
        np.flatnonzero(doc_shard == s).astype(np.int64)
        for s in range(shards)
    )
    row_offsets = np.zeros(shards + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=row_offsets[1:])
    return ShardPlan(
        num_docs=int(assignment.size),
        num_peers=int(num_peers),
        shards=int(shards),
        peer_shard=peer_shard,
        doc_shard=doc_shard,
        rows=rows,
        row_offsets=row_offsets,
    )


# ----------------------------------------------------------------------
# The pass step
# ----------------------------------------------------------------------
def cross_peer_edges(
    workspace: CSRWorkspace, assignment: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge cross-peer mask and per-document remote out-degree of a
    whole-graph workspace: only cross-peer deliveries count as network
    messages (intra-peer updates are free, §2.3 step 2)."""
    src = workspace.src
    cross = assignment[src] != assignment[workspace.dst]
    remote_outdeg = np.bincount(src[cross], minlength=workspace.num_nodes)
    return cross, remote_outdeg.astype(np.int64)


@dataclass
class WorkerState:
    """The per-run context every shard runner of one party shares.

    ``views`` holds the arrays shards exchange through: ``rank`` and
    ``stats`` always, ``last_sent`` on the static path and ``active``
    on the churn path.  A sharded run's views also hold ``published``,
    whose per-shard regions (``plan.row_offsets``) carry each shard's
    publishers of the latest static pass.  ``plan`` is ``None`` (or
    has one shard) when the whole graph is a single shard.
    ``fault_plans[s]`` is shard ``s``'s seeded loss stream, if any.
    ``shift`` is the per-document teleport shift of a preference
    vector (:func:`repro.core.personalized.preference_shift`), added
    to every pulled row; ``None`` keeps the uniform teleport.
    ``cut_outdeg`` (cross-shard out-degree per document) is derived
    from the plan when not given.
    """

    damping: float
    epsilon: float
    churn: bool
    views: Dict[str, np.ndarray]
    workspace: CSRWorkspace
    indptr: np.ndarray
    indices: np.ndarray
    assignment: np.ndarray
    cross_edge: np.ndarray
    remote_outdeg: np.ndarray
    fault_plans: Sequence[Optional[FaultPlan]]
    plan: Optional[ShardPlan] = None
    shift: Optional[np.ndarray] = None
    cut_outdeg: Optional[np.ndarray] = None
    frontier_buf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ws = self.workspace
        if self.cut_outdeg is None and self.plan is not None and self.plan.shards > 1:
            shard_of = self.plan.doc_shard
            cut = shard_of[ws.src] != shard_of[ws.dst]
            self.cut_outdeg = np.bincount(
                ws.src[cut], minlength=ws.num_nodes
            ).astype(np.int64)
        self.frontier_buf = np.empty(ws.num_nodes, dtype=bool)

    def published_regions(self) -> List[np.ndarray]:
        """Every shard's publishers of the latest static pass, read from
        its region of the shared ``published`` array."""
        assert self.plan is not None
        published = self.views["published"]
        stats = self.views["stats"]
        offsets = self.plan.row_offsets
        return [
            published[offsets[s]: offsets[s] + int(stats[s, COL_PUBLISHED])]
            for s in range(self.plan.shards)
        ]


class ShardRunner:
    """One shard's compute/publish state machine (see module docstring)."""

    def __init__(self, state: WorkerState, shard: int = 0) -> None:
        self.state = state
        self.shard = shard
        self.damping = state.damping
        self.epsilon = state.epsilon
        self.fault_plan = state.fault_plans[shard]
        plan = state.plan
        #: Document ids of the shard's rows; ``None`` = every document.
        self.rows: Optional[np.ndarray] = None
        self.view = state.workspace
        if plan is not None and plan.shards > 1:
            self.rows = plan.rows[shard]
            self.view = state.workspace.restrict(self.rows)
        # Selects the shard's rows of a document-length array: a
        # whole-graph shard indexes with a slice, i.e. no gather.
        self._sel: Union[slice, np.ndarray] = (
            slice(None) if self.rows is None else self.rows
        )
        #: The teleport shift of the shard's rows (``None``: uniform).
        self._shift = None if state.shift is None else state.shift[self._sel]
        k = self.view.num_nodes
        self._vals_buf = np.empty(k, dtype=np.float64)
        self._err_buf = np.empty(k, dtype=np.float64)
        self.compute_seconds = 0.0
        #: Documents the latest static pass published (ascending ids).
        self.published = np.empty(0, dtype=np.int64)
        # Staged compute-phase results (written in the publish phase):
        # the recomputed documents (``None`` = every row), their values
        # and epsilon mask.
        self._stage_ids: Optional[np.ndarray] = None
        self._stage_vals = self._vals_buf
        self._stage_act = np.empty(0, dtype=bool)
        self._stage_max_change = 0.0
        if state.churn:
            self._init_churn_state()

    def _doc_ids(self, local: np.ndarray) -> np.ndarray:
        return local if self.rows is None else self.rows[local]

    # ------------------------------------------------------------------
    # Static path (no churn, no faults)
    # ------------------------------------------------------------------
    def static_compute(
        self, t: int, dense: bool, published_global: Optional[np.ndarray]
    ) -> None:
        """Recompute this shard's rows — all of them, or the frontier of
        ``published_global`` — from the shared last-sent values; stage
        the results for :meth:`static_publish`."""
        t0 = perf_counter()
        st = self.state
        view = self.view
        last_sent = st.views["last_sent"]
        rank = st.views["rank"]
        ids: Optional[np.ndarray] = None
        if dense:
            vals = view.pull(last_sent, self.damping, out=self._vals_buf)
            if self._shift is not None:
                vals += self._shift
            err = relative_change(rank[self._sel], vals, out=self._err_buf)
        else:
            assert published_global is not None
            # Selective recomputation: a row whose in-edge inputs (its
            # sources' last-*sent* values) did not change since the
            # previous pass would recompute to the very same bits, so
            # only the out-targets of the last pass's publishers — the
            # frontier — recompute.
            frontier = st.frontier_buf
            frontier[:] = False
            tpos, _ = expand_rows(st.indptr, published_global)
            frontier[st.indices[tpos]] = True
            local = np.flatnonzero(frontier[self._sel])
            ids = self._doc_ids(local)
            # Row-gathered bookkeeping costs ~2.5x per edge vs the flat
            # kernel, so past ~0.4E frontier in-edges pull every row
            # and gather the frontier out of the dense result — either
            # way only the frontier rows can differ from their old bits.
            if 5 * view.row_edges(local) >= 2 * view.rindices.size:
                vals = view.pull(last_sent, self.damping, out=self._vals_buf)[local]
            else:
                vals = view.pull_rows(last_sent, self.damping, local)
            if st.shift is not None:
                vals += st.shift[ids]
            err = relative_change(rank[ids], vals)
        act = err > self.epsilon
        self.published = self._doc_ids(np.flatnonzero(act)) if ids is None else ids[act]
        self._stage_ids = ids
        self._stage_vals = vals
        self._stage_act = act
        self._stage_max_change = float(err.max()) if err.size else 0.0
        self.compute_seconds = perf_counter() - t0

    def static_publish(self) -> None:
        """Write the staged values into this shard's disjoint regions
        of the shared arrays, plus the statistics row.  Documents that
        crossed epsilon propagate their fresh value; quiet documents'
        last-sent value stays stale — the chaotic rule."""
        t0 = perf_counter()
        st = self.state
        published = self.published
        vals = self._stage_vals
        if published.size:
            st.views["last_sent"][published] = vals[self._stage_act]
        region = st.views.get("published")
        if region is not None:
            assert st.plan is not None
            start = int(st.plan.row_offsets[self.shard])
            region[start: start + published.size] = published
        ids = self._stage_ids
        st.views["rank"][self._sel if ids is None else ids] = vals
        row = st.views["stats"][self.shard]
        row[:] = 0.0
        row[COL_ACTIVE] = published.size
        row[COL_MESSAGES] = int(st.remote_outdeg[published].sum())
        row[COL_MAX_CHANGE] = self._stage_max_change
        row[COL_COMPUTED] = vals.size
        row[COL_PUBLISHED] = published.size
        if st.cut_outdeg is not None:
            row[COL_CUT] = int(st.cut_outdeg[published].sum())
        row[COL_COMPUTE_S] = self.compute_seconds + (perf_counter() - t0)

    # ------------------------------------------------------------------
    # Churn path (availability and/or injected loss, §3.1)
    # ------------------------------------------------------------------
    def _init_churn_state(self) -> None:
        st = self.state
        view = self.view
        # Per-edge state over the in-edges of the shard's rows, in
        # forward order (``view.src`` global sources, ``view.dst``
        # local rows): the receiver-side view of each source's rank,
        # initialized to the globally known initial value.
        self.ecross = st.cross_edge
        self.ecut: Optional[np.ndarray] = None
        if self.rows is not None:
            assert st.plan is not None
            self.ecross = st.assignment[view.src] != st.assignment[self.rows][view.dst]
            self.ecut = st.plan.doc_shard[view.src] != self.shard
        self.delivered = st.views["rank"][view.src]
        self.pending = np.zeros(view.src.size, dtype=bool)
        self.pending_val = np.zeros(view.src.size, dtype=np.float64)
        # dirty[i]: row i received a delivery it has not yet folded
        # into a recompute (prevents declaring convergence while an
        # absent peer still owes a recompute).
        self.dirty = np.zeros(view.num_nodes, dtype=bool)
        self._dst_live = np.empty(0, dtype=bool)
        self._n_resent = 0
        self._n_dropped = 0
        self._n_active = 0
        self._n_computed = 0

    def churn_compute(self, t: int, live_peer: np.ndarray) -> None:
        """Resend + recompute phase, all private state: fold §3.1
        stored updates whose endpoints returned and pull this shard's
        rows from the per-edge delivered values.  Writes nothing shared
        — another party may still be reading the previous pass's
        results — results are staged for :meth:`churn_publish`."""
        t0 = perf_counter()
        st = self.state
        view = self.view
        live_doc = live_peer[st.assignment]
        live_rows = live_doc[self._sel]
        dst_live = live_rows[view.dst]

        # 1) Store-and-resend: stored updates whose sender and receiver
        #    are both now present get delivered.  Retransmissions travel
        #    the same lossy links (resend draws come before this pass's
        #    send draws); a dropped one simply stays pending.
        resend = self.pending & live_doc[view.src] & dst_live
        self._n_dropped = 0
        if self.fault_plan is not None and resend.any():
            cand = np.flatnonzero(resend)
            kept = self.fault_plan.edge_delivery_mask(t, cand.size)
            if not kept.all():
                resend[cand[~kept]] = False
                self._n_dropped += int((~kept).sum())
        self._n_resent = int(resend.sum())
        if self._n_resent:
            self.delivered[resend] = self.pending_val[resend]
            self.pending[resend] = False
            self.dirty[view.dst[resend]] = True

        # 2) Live rows recompute from their delivered in-edge values.
        new = view.pull_edges(self.delivered, self.damping, out=self._vals_buf)
        if self._shift is not None:
            new += self._shift
        old = st.views["rank"][self._sel]
        np.copyto(new, old, where=~live_rows)
        err = relative_change(old, new, out=self._err_buf)
        err[~live_rows] = 0.0
        self.dirty[live_rows] = False
        act = live_rows & (err > self.epsilon)

        self._stage_vals = new
        self._stage_act = act
        self._stage_max_change = float(err.max()) if err.size else 0.0
        self._n_active = int(act.sum())
        self._n_computed = int(live_rows.sum())
        self._dst_live = dst_live
        self.compute_seconds = perf_counter() - t0

    def churn_publish(self) -> None:
        """Write the staged ranks and activity flags for this shard's
        own rows (disjoint regions); every shard reads the full arrays
        only in the delivery phase, on the far side of the barrier."""
        t0 = perf_counter()
        views = self.state.views
        views["rank"][self._sel] = self._stage_vals
        views["active"][self._sel] = self._stage_act
        self.compute_seconds += perf_counter() - t0

    def churn_deliver(self, t: int, live_peer: np.ndarray) -> None:
        """Delivery phase: read every shard's freshly published ranks
        and activity, update the private per-edge state (deliver /
        defer / lose-and-park), and write the statistics row."""
        t0 = perf_counter()
        st = self.state
        rank = st.views["rank"]
        src = self.view.src
        send_edge = st.views["active"][src]
        deliver = send_edge & self._dst_live
        defer = send_edge & ~self._dst_live

        if self.fault_plan is not None:
            # Lossy-send hook: each cross-peer delivery rolls the plan;
            # a lost copy is parked in the store-and-resend state and
            # retried next pass — the pass-granular equivalent of a
            # reliable transport's ack-timeout retransmission.
            lossy = np.flatnonzero(deliver & self.ecross)
            if lossy.size:
                kept = self.fault_plan.edge_delivery_mask(t, lossy.size)
                if not kept.all():
                    lost = lossy[~kept]
                    deliver[lost] = False
                    self.pending_val[lost] = rank[src[lost]]
                    self.pending[lost] = True
                    self._n_dropped += lost.size
            # A fresh value that does get through supersedes any staler
            # copy still awaiting retransmission.
            self.pending[deliver] = False

        # 3) Deliver to present receivers; store for absent ones.
        if deliver.any():
            self.delivered[deliver] = rank[src[deliver]]
            self.dirty[self.view.dst[deliver]] = True
        if defer.any():
            self.pending_val[defer] = rank[src[defer]]
            self.pending[defer] = True

        row = st.views["stats"][self.shard]
        row[:] = 0.0
        row[COL_ACTIVE] = self._n_active
        row[COL_MESSAGES] = int((deliver & self.ecross).sum()) + self._n_resent
        row[COL_MAX_CHANGE] = self._stage_max_change
        row[COL_COMPUTED] = self._n_computed
        row[COL_DEFERRED] = int(defer.sum())
        row[COL_RESENT] = self._n_resent
        row[COL_DROPPED] = self._n_dropped
        row[COL_PENDING] = 1.0 if self.pending.any() else 0.0
        row[COL_DIRTY] = 1.0 if self.dirty.any() else 0.0
        if self.ecut is not None:
            row[COL_CUT] = int((deliver & self.ecut).sum())
        row[COL_COMPUTE_S] = self.compute_seconds + (perf_counter() - t0)

    def churn_dead_pass(self, t: int) -> None:
        """All peers down: nothing recomputes; report the parked-update
        backlog in the pass record."""
        row = self.state.views["stats"][self.shard]
        row[:] = 0.0
        row[COL_DEFERRED] = int(self.pending.sum())
        row[COL_PENDING] = 1.0 if self.pending.any() else 0.0
        row[COL_DIRTY] = 1.0 if self.dirty.any() else 0.0


def _no_sync() -> None:
    """The phase rendezvous of a party that runs every shard itself."""


def run_shards(
    runners: Sequence[ShardRunner],
    *,
    state: WorkerState,
    max_passes: int,
    num_peers: int,
    record: PassRecorder,
    availability: Optional[AvailabilityModel] = None,
    max_dead_passes: int = 50,
    on_pass: Optional[PassObserver] = None,
    pass_timer: Optional[ContextManager[object]] = None,
    sync: Optional[Callable[[], None]] = None,
) -> bool:
    """The pass loop: drive ``runners`` — this party's shards of the
    run ``state`` describes, possibly none — through every pass.

    ``sync`` is the rendezvous between phases: a barrier wait across
    processes, ``None`` when one party runs every shard.  It is
    called twice per static pass (after compute, after publish) and
    three times per churn pass, dead or not (after compute, publish
    and deliver), so every party performs the identical wait sequence;
    shared arrays are written only between a pass's first and last
    sync and read by the next pass's compute, or by ``record``.
    ``record`` sees each pass once its statistics rows are written;
    ``pass_timer`` (entered once per computed pass) times the step.
    Returns whether the strong convergence criterion fired before the
    budget ran out; raises :func:`starvation_error` after
    ``max_dead_passes`` consecutive passes with every peer down (such
    passes are skipped, never evaluated for convergence).
    """
    stats = state.views["stats"]
    rank = state.views["rank"]
    timer = pass_timer if pass_timer is not None else nullcontext()
    if sync is None:
        sync = _no_sync
    if not state.churn:
        prev_published = 0
        for t in range(max_passes):
            dense = static_pass_is_dense(t, prev_published, rank.size)
            with timer:
                published: Optional[np.ndarray] = None
                if runners and not dense:
                    published = (
                        np.concatenate(state.published_regions())
                        if "published" in state.views else runners[0].published
                    )
                for runner in runners:
                    runner.static_compute(t, dense, published)
                sync()
                for runner in runners:
                    runner.static_publish()
                sync()
            prev_published = int(stats[:, COL_PUBLISHED].sum())
            if on_pass is not None:
                on_pass(t, rank)
            record(t, num_peers)
            if static_should_stop(stats):
                return True
        return False

    assert availability is not None
    dead_streak = 0
    for t in range(max_passes):
        live = live_mask(availability, t, num_peers)
        if not live.any():
            # All peers down: skip the pass — with nothing live, the
            # convergence check would falsely fire.  Every party still
            # meets the pass's three syncs.
            dead_streak += 1
            sync()
            sync()
            for runner in runners:
                runner.churn_dead_pass(t)
            sync()
            record(t, 0)
            if dead_streak >= max_dead_passes:
                raise starvation_error(dead_streak, t)
            continue
        dead_streak = 0
        with timer:
            for runner in runners:
                runner.churn_compute(t, live)
            sync()
            for runner in runners:
                runner.churn_publish()
            sync()
            for runner in runners:
                runner.churn_deliver(t, live)
            sync()
        if on_pass is not None:
            on_pass(t, rank)
        record(t, int(live.sum()))
        if churn_should_stop(stats):
            return True
    return False
