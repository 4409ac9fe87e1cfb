"""The chaotic pass step, one shard at a time (§2.3, Figure 1; §3.1).

This module holds the one implementation of the paper's pass: the
ε-gate, the frontier-selective pull and the per-edge §3.1
store-and-resend state (resend, deliver, defer, park on loss).  The
store is one owed bit per edge, not a value: a source's newest update
supersedes any older one, so a resend carries the source's latest
published value, read from the ``published`` array beside ``rank``.  A
:class:`ShardRunner` executes it for one *shard* — a set of peers and
their documents.  :class:`~repro.core.distributed.ChaoticPagerank`
runs the whole graph as a single shard;
:class:`repro.parallel.ParallelPagerank` splits the peers into several
shards (:func:`build_shard_plan`) and drives them from worker OS
processes or on one thread; the protocol simulator runs a whole-graph
shard's compute and publish as step 2 of its pass.  A run with every
peer up is the :class:`AllLive` case of the same step.

Every pass splits into phases a multi-process run separates with
barriers:

* **compute** — fold §3.1 stored updates whose endpoints are back,
  recompute the shard's *frontier* from its private per-edge delivered
  values, and stage the results;
* **publish** — write the staged ranks, publisher flags and published
  values into the shard's own disjoint regions of the shared arrays;
* **deliver** — walk the out-edges of every shard's publishers into
  the shard's private edge state (deliver, defer, lose and park), then
  write the shard's row of the statistics matrix.

The frontier is the live rows that received a delivery since they
last computed, plus the live rows that never computed.  Any other row
would recompute to the very same bits, so skipping it changes no
result and no statistic.

All cross-shard writes go to disjoint index ranges, and all
cross-shard reads happen on the far side of a barrier from the writes
they observe.  Each row's in-edges are walked in the same forward
order and summed by the same sequential ``bincount`` whatever the
partition, so an all-live run's values do not depend on the shard
count (docs/PERFORMANCE.md "Sharded execution model").  A whole-graph
shard uses the engine's :class:`CSRWorkspace`, per-edge arrays and
forward ``indptr`` as they are, without copies, and its row ids are
document ids.  A teleport preference vector (topic-sensitive ranking,
§7) is data of the step: its per-document shift is added to every
pulled row.

The per-pass control decisions (stop or go, starved or not) are pure
functions of the statistics matrix and the availability sample, so
every party of a parallel run takes them independently from the same
bytes: no control messages, no coordinator.  :func:`run_shards` is the
one pass loop: every party — the serial engine's whole-graph shard,
the in-thread sharded backend, each worker process and the parent that
only watches — runs it over its own shards, with a ``sync`` rendezvous
between phases.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Callable,
    ContextManager,
    Dict,
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
    "COL_DEFERRED",
    "COL_RESENT",
    "COL_DROPPED",
    "COL_PENDING",
    "COL_DIRTY",
    "COL_CUT",
    "COL_COMPUTE_S",
    "N_STAT_COLS",
    "should_stop",
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
    """Availability model with every peer present every pass: what a
    run without one uses.  Picklable and RNG-free, so every party of a
    parallel run trivially agrees."""

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
COL_COMPUTED = 3    #: live documents (a skipped one recomputes to its bits)
COL_DEFERRED = 4    #: updates stored for absent receivers (§3.1)
COL_RESENT = 5      #: store-and-resend deliveries completed
COL_DROPPED = 6     #: deliveries lost to injected faults
COL_PENDING = 7     #: 1.0 if any edge still holds a parked update
COL_DIRTY = 8       #: 1.0 if any document has an unfolded delivery
COL_CUT = 9         #: deliveries whose sender lives in another shard
COL_COMPUTE_S = 10  #: shard compute seconds this pass (metrics only)
N_STAT_COLS = 11


def should_stop(stats: np.ndarray) -> bool:
    """Strong convergence: nothing active, nothing parked for an absent
    peer, nothing delivered-but-not-recomputed."""
    return (
        int(stats[:, COL_ACTIVE].sum()) == 0
        and int(stats[:, COL_PENDING].sum()) == 0
        and int(stats[:, COL_DIRTY].sum()) == 0
    )


def pass_stats(stats: np.ndarray, pass_index: int, live_peers: int) -> PassStats:
    """One pass's record, summed over every shard's statistics row."""
    return PassStats(
        pass_index=pass_index,
        max_rel_change=float(stats[:, COL_MAX_CHANGE].max()),
        active_documents=int(stats[:, COL_ACTIVE].sum()),
        messages=int(stats[:, COL_MESSAGES].sum()),
        deferred_messages=int(stats[:, COL_DEFERRED].sum()),
        live_peers=live_peers,
        computed_documents=int(stats[:, COL_COMPUTED].sum()),
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
        ``shards + 1``).
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
def cross_peer_edges(workspace: CSRWorkspace, assignment: np.ndarray) -> np.ndarray:
    """Per-edge cross-peer mask of a whole-graph workspace: only
    cross-peer deliveries count as network messages (intra-peer updates
    are free, §2.3 step 2)."""
    return assignment[workspace.src] != assignment[workspace.dst]


@dataclass
class WorkerState:
    """The per-run context every shard runner of one party shares.

    ``views`` holds the arrays shards exchange through: ``rank``,
    ``published`` (every document's latest published value, the value
    a §3.1 resend carries), ``active`` (the publishers of the latest
    pass) and ``stats``.
    ``indptr`` is the forward adjacency's row pointer, the whole-graph
    shard's index of its edges by source.  ``plan`` is ``None`` (or
    has one shard) when the whole graph is a single shard.
    ``fault_plans[s]`` is shard ``s``'s seeded loss stream, if any.
    ``shift`` is the per-document teleport shift of a preference
    vector (:func:`repro.core.personalized.preference_shift`), added
    to every pulled row; ``None`` keeps the uniform teleport.
    """

    damping: float
    epsilon: float
    views: Dict[str, np.ndarray]
    workspace: CSRWorkspace
    indptr: np.ndarray
    assignment: np.ndarray
    cross_edge: np.ndarray
    fault_plans: Sequence[Optional[FaultPlan]]
    plan: Optional[ShardPlan] = None
    shift: Optional[np.ndarray] = None


class ShardRunner:
    """One shard's compute/publish/deliver state machine (see module
    docstring)."""

    def __init__(self, state: WorkerState, shard: int = 0) -> None:
        self.state = state
        self.shard = shard
        self.damping = state.damping
        self.epsilon = state.epsilon
        self.fault_plan = state.fault_plans[shard]
        plan = state.plan
        #: Document ids of the shard's rows; ``None`` = every document.
        self.rows: Optional[np.ndarray] = None
        view = state.workspace
        # The view's edges by source document: a whole-graph view's
        # edges are the forward edges themselves.
        self._out_ptr = state.indptr
        self.ecross = state.cross_edge
        self.ecut: Optional[np.ndarray] = None
        if plan is not None and plan.shards > 1:
            self.rows = plan.rows[shard]
            view = view.restrict(self.rows)
            self._out_ptr = np.zeros(plan.num_docs + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(view.src, minlength=plan.num_docs),
                out=self._out_ptr[1:],
            )
            self.ecross = state.assignment[view.src] != state.assignment[self.rows][view.dst]
            self.ecut = plan.doc_shard[view.src] != shard
        self.view = view
        # Selects the shard's rows of a document-length array: a
        # whole-graph shard indexes with a slice, i.e. no gather.
        self._sel: Union[slice, np.ndarray] = (
            slice(None) if self.rows is None else self.rows
        )
        #: The teleport shift of the shard's rows (``None``: uniform).
        self._shift = None if state.shift is None else state.shift[self._sel]
        k = view.num_nodes
        self._vals_buf = np.empty(k, dtype=np.float64)
        self.compute_seconds = 0.0

        # Per-edge state over the in-edges of the shard's rows, in
        # forward order (``view.src`` global sources, ``view.dst``
        # local rows): the receiver-side view of each source's rank,
        # initialized to the globally known initial value, and the
        # §3.1 store, the edges that owe their source's latest publish.
        self.delivered = state.views["rank"][view.src]
        self.pending = np.zeros(view.src.size, dtype=bool)
        self._n_pending = 0
        # dirty[i]: row i received a delivery it has not yet folded
        # into a recompute (prevents declaring convergence while an
        # absent peer still owes a recompute).  fresh[i]: row i never
        # computed.  Together they are the frontier.
        self.dirty = np.zeros(k, dtype=bool)
        self.fresh = np.ones(k, dtype=bool)
        # The latest availability mask and what it selects, reused
        # while the mask repeats (every pass of an all-live run).
        self._live_peer: Optional[np.ndarray] = None
        self._live_doc = np.empty(0, dtype=bool)
        self._live_rows = np.empty(0, dtype=bool)
        #: Live rows of the latest compute: the pass's computed count.
        self.n_live = 0
        #: Documents the latest computed pass published (ascending).
        self.published = np.empty(0, dtype=np.int64)
        # Staged compute-phase results, consumed by the publish phase:
        # the recomputed documents, their values and epsilon mask.
        self._staged: Tuple[np.ndarray, ...] = ()
        #: Largest relative change of the latest compute's rows.
        self.max_change = 0.0
        self._n_resent = 0
        self._n_dropped = 0

    def _doc_ids(self, local: np.ndarray) -> np.ndarray:
        return local if self.rows is None else self.rows[local]

    def _sample(self, live_peer: np.ndarray) -> None:
        """Select the live documents of ``live_peer``, reusing the last
        selection while the mask repeats."""
        if self._live_peer is not None and np.array_equal(live_peer, self._live_peer):
            return
        self._live_peer = live_peer.copy()
        self._live_doc = live_peer[self.state.assignment]
        self._live_rows = self._live_doc[self._sel]
        self.n_live = int(self._live_rows.sum())

    def placement_moved(self) -> None:
        """The assignment changed in place: select the live rows afresh."""
        self._live_peer = None

    def _park(self, edges: np.ndarray) -> None:
        """Mark ``edges`` as owing their sources' latest publish."""
        self._n_pending += int(edges.size - self.pending[edges].sum())
        self.pending[edges] = True

    def compute(self, t: int, live_peer: np.ndarray) -> None:
        """Resend + recompute phase, all private state: fold §3.1
        stored updates whose endpoints returned and pull the shard's
        frontier rows from the per-edge delivered values.  Writes
        nothing shared — another party may still be reading the
        previous pass's results — results are staged for
        :meth:`publish`."""
        t0 = perf_counter()
        view = self.view
        self._sample(live_peer)
        live_rows = self._live_rows

        # 1) Store-and-resend: stored updates whose sender and receiver
        #    are both now present get delivered, at the value their
        #    source last published.  Retransmissions travel the same
        #    lossy links (resend draws come before this pass's send
        #    draws, in ascending edge order); a dropped one simply stays
        #    pending.
        self._n_dropped = 0
        resend = np.empty(0, dtype=np.int64)
        if self._n_pending:
            resend = np.flatnonzero(self.pending)
            resend = resend[self._live_doc[view.src[resend]] & live_rows[view.dst[resend]]]
            if self.fault_plan is not None and resend.size:
                kept = self.fault_plan.edge_delivery_mask(t, resend.size)
                if not kept.all():
                    self._n_dropped = int(resend.size - kept.sum())
                    resend = resend[kept]
            if resend.size:
                self.delivered[resend] = self.state.views["published"][view.src[resend]]
                self.pending[resend] = False
                self._n_pending -= resend.size
                self.dirty[view.dst[resend]] = True
        self._n_resent = int(resend.size)

        # 2) The frontier's live rows recompute from their delivered
        #    in-edge values.  Once the frontier holds 0.4 E in-edges
        #    the flat kernel over every edge beats the row gather, and
        #    only the frontier's rows are taken from it.
        frontier = self.dirty | self.fresh
        if self.n_live < view.num_nodes:
            frontier &= live_rows
        local = np.flatnonzero(frontier)
        self.dirty[local] = False
        self.fresh[local] = False
        if 5 * view.row_edges(local) >= 2 * view.rperm.size:
            vals = view.pull_edges(self.delivered, self.damping, out=self._vals_buf)
            if self._shift is not None:
                vals += self._shift
            if local.size < vals.size:
                vals = vals[local]
        else:
            vals = view.pull_rows(self.delivered, self.damping, local)
            if self._shift is not None:
                vals += self._shift[local]
        ids = self._doc_ids(local)
        err = relative_change(self.state.views["rank"][ids], vals)
        act = err > self.epsilon

        self._staged = (ids, vals, act)
        self.max_change = float(err.max()) if err.size else 0.0
        self.compute_seconds = perf_counter() - t0

    def publish(self) -> None:
        """Write the staged ranks, publisher flags and published values
        for this shard's own rows (disjoint regions); other shards read
        them only on the far side of the barrier."""
        t0 = perf_counter()
        ids, vals, act = self._staged
        self._staged = ()
        views = self.state.views
        active = views["active"]
        active[self.published] = False
        views["rank"][ids] = vals
        self.published = ids[act]
        active[self.published] = True
        views["published"][self.published] = vals[act]
        self.compute_seconds += perf_counter() - t0

    def deliver(self, t: int) -> None:
        """Delivery phase: walk the out-edges of every shard's freshly
        published documents into the private per-edge state (deliver /
        defer / lose-and-park), and write the statistics row."""
        t0 = perf_counter()
        st = self.state
        view = self.view
        # The out-edges of this pass's publishers that land in this
        # shard, in ascending edge order (the loss-draw order), and the
        # value each carries.
        publishers = np.flatnonzero(st.views["active"])
        deliver, lens = expand_rows(self._out_ptr, publishers)
        values = np.repeat(st.views["published"][publishers], lens)
        # Edge-length arrays dominate peak memory: drop each one early.
        del publishers, lens
        n_deferred = 0
        if self.n_live < view.num_nodes:
            # Store updates for absent receivers (§3.1).
            to_live = self._live_rows[view.dst[deliver]]
            n_deferred = deliver.size - int(to_live.sum())
            self._park(deliver[~to_live])
            deliver = deliver[to_live]
            values = values[to_live]

        if self.fault_plan is not None:
            # Lossy-send hook: each cross-peer delivery rolls the plan;
            # a lost copy is parked in the store-and-resend state and
            # retried next pass — the pass-granular equivalent of a
            # reliable transport's ack-timeout retransmission.
            lossy = np.flatnonzero(self.ecross[deliver])
            if lossy.size:
                kept = self.fault_plan.edge_delivery_mask(t, lossy.size)
                if not kept.all():
                    lost = lossy[~kept]
                    self._park(deliver[lost])
                    self._n_dropped += lost.size
                    deliver, values = np.delete(deliver, lost), np.delete(values, lost)
        if self._n_pending:
            # A fresh value that gets through settles what its edge
            # owed.
            stale = deliver[self.pending[deliver]]
            self.pending[stale] = False
            self._n_pending -= stale.size

        # Deliver to present receivers.
        self.delivered[deliver] = values
        del values
        self.dirty[view.dst[deliver]] = True

        row = st.views["stats"][self.shard]
        row[:] = 0.0
        row[COL_ACTIVE] = self.published.size
        row[COL_MESSAGES] = int(self.ecross[deliver].sum()) + self._n_resent
        row[COL_MAX_CHANGE] = self.max_change
        row[COL_COMPUTED] = self.n_live
        row[COL_DEFERRED] = n_deferred
        row[COL_RESENT] = self._n_resent
        row[COL_DROPPED] = self._n_dropped
        row[COL_PENDING] = 1.0 if self._n_pending else 0.0
        row[COL_DIRTY] = 1.0 if self.dirty.any() else 0.0
        if self.ecut is not None:
            row[COL_CUT] = int(self.ecut[deliver].sum())
        row[COL_COMPUTE_S] = self.compute_seconds + (perf_counter() - t0)

    def dead_pass(self) -> None:
        """All peers down: nothing recomputes; report the parked-update
        backlog in the pass record."""
        row = self.state.views["stats"][self.shard]
        row[:] = 0.0
        row[COL_DEFERRED] = self._n_pending
        row[COL_PENDING] = 1.0 if self._n_pending else 0.0
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
    availability: AvailabilityModel,
    max_dead_passes: int = 50,
    on_pass: Optional[PassObserver] = None,
    pass_timer: Optional[ContextManager[object]] = None,
    sync: Optional[Callable[[], None]] = None,
) -> bool:
    """The pass loop: drive ``runners`` — this party's shards of the
    run ``state`` describes, possibly none — through every pass.

    ``sync`` is the rendezvous between phases: a barrier wait across
    processes, ``None`` when one party runs every shard.  It is called
    three times per pass, dead or not (after compute, publish and
    deliver), so every party performs the identical wait sequence;
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
                runner.dead_pass()
            sync()
            record(t, 0)
            if dead_streak >= max_dead_passes:
                raise starvation_error(dead_streak, t)
            continue
        dead_streak = 0
        with timer:
            for runner in runners:
                runner.compute(t, live)
            sync()
            for runner in runners:
                runner.publish()
            sync()
            for runner in runners:
                runner.deliver(t)
            sync()
        if on_pass is not None:
            on_pass(t, rank)
        record(t, int(live.sum()))
        if should_stop(stats):
            return True
    return False
