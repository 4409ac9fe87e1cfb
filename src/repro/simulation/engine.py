"""Protocol-level pass simulator on the real P2P substrate.

Where :class:`repro.core.distributed.ChaoticPagerank` is the vectorized
array engine, :class:`P2PPagerankSimulation` runs the *actual
protocol*: peers exchanging pagerank updates in per-(sender, receiver)
batches, with §3.1 store-and-resend for absent peers and an optional
§3.2 delivery policy pricing DHT routing hops.

The unit of work is the pass, one concurrent step of every live peer's
Fig. 1 state machine, kept in document-indexed arrays: owner, rank,
published value and publish version.  Step 2 is the vectorized engines'
shard step (:class:`~repro.core.shard.ShardRunner`) over the whole
graph.  From :attr:`P2PPagerankSimulation.view`, which holds for each
in-edge ``s -> d`` what ``d``'s owner sees of ``s``, it recomputes the
live documents that have not computed in the run or whose view changed
since (any other would recompute to its very same bits), and its ε-gate
picks the publishers.  Step 3 walks their out-edges once: co-located
targets see the published values at once.  Lossless, nothing can be
lost, so no update is staged: each cross-peer edge to a present
receiver writes its (receiver, source) pair in one table of what every
peer has heard, and the view, and an edge to an absent receiver owes an
update.  The §3.1 store is one bool per edge, as in the shard step, and
a later pass resends each owed edge at its source's current published
value and version.  With a fault plan the remote updates are staged as
rows, in one :class:`~repro.p2p.messages.BatchColumns` batch per
(sender, receiver) pair, and every batch becomes a flight of the
reliable transport; a §3.2 delivery policy prices the hops of rows
grouped the same way.  Every update that arrives as a row — a resend,
a transport copy, or the knowledge a re-homed document carries — goes
through one grouped fold into the heard table, which also writes the
view.  A crash is a mask, and a §3.1 migration a write to the owner
array.  The view changes only at a publish, an applied update or a
migration, and each puts the documents it writes in the frontier.  The
integration suite checks the simulator against the vectorized engine:
identical ranks, message counts and pass counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Set, Tuple, Union

import numpy as np

from repro._util import check_positive, check_threshold
from repro.core.convergence import ConvergenceTracker, PassStats, RunReport
from repro.core.distributed import AvailabilityModel
from repro.core.kernels import CSRWorkspace, expand_rows
from repro.core.pagerank import DEFAULT_DAMPING
from repro.core.shard import (
    AllLive,
    ShardRunner,
    WorkerState,
    check_run_budget,
    cross_peer_edges,
    live_mask,
    starvation_error,
)
from repro.faults.plan import FaultPlan
from repro.faults.transport import (
    ReliabilityConfig,
    ReliableTransport,
    StagnationDetector,
)
from repro.graphs.linkgraph import LinkGraph
from repro.obs import get_registry, get_trace_sink
from repro.p2p.messages import MESSAGE_SIZE_BYTES, BatchColumns, UpdateColumns
from repro.p2p.network import P2PNetwork
from repro.p2p.routing import DeliveryPolicy

__all__ = ["P2PPagerankSimulation", "TrafficSummary"]


#: One row of what the peers have heard (:meth:`P2PPagerankSimulation.
#: heard_rows`): ``receiver * N + source`` (N documents) and the newest
#: value the receiver holds of the source, at its version.
_HEARD = np.dtype([("key", np.int64), ("value", np.float64), ("version", np.int64)])

#: The key of the no-pair slot, past every ``receiver * N + source``.
_NO_PAIR = np.iinfo(np.int64).max


#: Staged rows: row ``i`` goes from peer ``senders[i]`` to peer
#: ``dests[i]``, as ``(senders, dests, updates)``.
_Rows = Tuple[np.ndarray, np.ndarray, UpdateColumns]


def _stable_sort(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``keys`` (non-negative) sorted, and the stable permutation that
    sorts them: ties keep row order.  One value sort of every key packed
    above its row index, several times faster than a stable argsort."""
    bits = max(keys.size - 1, 1).bit_length()
    if keys.size and int(keys.max()) >> (63 - bits):
        raise OverflowError(f"keys up to {int(keys.max())} do not pack above {bits} bits")
    packed = np.sort((keys << bits) | np.arange(keys.size))
    return packed >> bits, packed & ((1 << bits) - 1)


def _distinct(keys: np.ndarray) -> int:
    """How many distinct values ``keys`` holds (a sort: ``np.unique``
    hashes, several times slower on integer keys)."""
    keys = np.sort(keys)
    return int(keys.size > 0) + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _batches(
    senders: np.ndarray, dests: np.ndarray, updates: UpdateColumns, num_peers: int
) -> BatchColumns:
    """Group rows (row ``i`` goes from ``senders[i]`` to ``dests[i]``)
    into one batch per (sender, receiver) pair: senders ascending, each
    sender's receivers in first-staging order and its updates in staging
    order (the order fault injection draws and location caches price in,
    so part of a seeded run's identity)."""
    # A stable sort puts each pair's rows together in staging order.
    pairs, order = _stable_sort(senders * num_peers + dests)
    head = np.empty(pairs.size, dtype=bool)
    head[:1] = True
    np.not_equal(pairs[1:], pairs[:-1], out=head[1:])
    bounds = np.append(np.flatnonzero(head), pairs.size)
    pairs = pairs[bounds[:-1]]
    # Batches by sender, then by first row; lay their rows out in turn.
    by_first = _stable_sort(pairs // num_peers * order.size + order[bounds[:-1]])[1]
    pos, sizes = expand_rows(bounds, by_first)
    order = order[pos]
    del pos
    offsets = np.zeros(by_first.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    pairs = pairs[by_first]
    return BatchColumns(
        pairs // num_peers, pairs % num_peers, offsets, updates.take(order)
    )


@dataclass
class TrafficSummary:
    """Aggregate traffic accounting of one protocol-level run.

    Attributes
    ----------
    update_messages:
        Pagerank update messages delivered (cross-peer only).
    resent_messages:
        Of those, deliveries that had been stored for absent peers.
    network_batches:
        (sender, receiver) batch transfers — the unit the §4.6.1
        transfer model serialises.  Lossless, one per pair that a
        delivery step hands updates to: step 1's resend and step 3's
        exchange each count their pairs, so a pass can count a pair
        twice.  Under a fault plan, one per delivered copy: every
        retransmit, duplicate and delayed copy that arrives counts.
    routing_hops:
        Total hops charged by the delivery policy (0 with the default
        oracle policy; > messages in Freenet/routed mode).
    bytes_transferred:
        ``update_messages × 24`` under the paper's message sizing.
    migrations:
        Documents moved by §3.1 re-homing (0 unless ``rehoming_after``
        is enabled).
    """

    update_messages: int = 0
    resent_messages: int = 0
    network_batches: int = 0
    routing_hops: int = 0
    bytes_transferred: int = 0
    migrations: int = 0


class _SimInstruments:
    """Registry handles for the protocol simulator's per-pass emissions
    (shared no-op singletons under the default disabled registry).
    Names are documented in docs/OBSERVABILITY.md."""

    __slots__ = (
        "passes",
        "delivered",
        "resent",
        "batches",
        "bytes",
        "hops",
        "migrations",
        "store_depth",
        "residual",
        "live_peers",
        "dead_passes",
        "pass_timer",
    )

    def __init__(self, reg) -> None:
        self.passes = reg.counter(
            "sim.passes", unit="passes",
            description="protocol-simulator passes executed",
        )
        self.delivered = reg.counter(
            "sim.messages_delivered", unit="messages",
            description="cross-peer update messages delivered (Table 3)",
        )
        self.resent = reg.counter(
            "sim.messages_resent", unit="messages",
            description="deliveries that had been stored for absent peers",
        )
        self.batches = reg.counter(
            "sim.network_batches", unit="batches",
            description="(sender, receiver) batch transfers (section 4.6.1 unit)",
        )
        self.bytes = reg.counter(
            "sim.bytes_transferred", unit="bytes",
            description="wire bytes under the paper's 24-byte message model",
        )
        self.hops = reg.counter(
            "sim.routing_hops", unit="hops",
            description="hops charged by the delivery policy (section 3.2)",
        )
        self.migrations = reg.counter(
            "sim.migrations", unit="documents",
            description="documents moved by section 3.1 re-homing",
        )
        self.store_depth = reg.histogram(
            "sim.store_depth", unit="messages",
            description="stored (undeliverable) updates outstanding per pass",
        )
        self.residual = reg.gauge(
            "sim.residual", unit="rel. change",
            description="max per-document relative change of the latest pass",
        )
        self.live_peers = reg.gauge(
            "sim.live_peers", unit="peers",
            description="peers present during the latest pass",
        )
        self.dead_passes = reg.counter(
            "sim.dead_passes", unit="passes",
            description="passes skipped because zero peers were live",
        )
        self.pass_timer = reg.timer(
            "sim.pass_seconds",
            description="wall-clock seconds per protocol-simulator pass",
        )


class P2PPagerankSimulation:
    """Distributed pagerank over every peer's state machine, stepped
    as arrays one pass at a time.

    Parameters
    ----------
    graph:
        The document link graph.
    network:
        A :class:`~repro.p2p.network.P2PNetwork` with a placement
        attached (who stores which document).
    damping, epsilon, init_rank:
        Algorithm parameters, as in the vectorized engine.
    delivery_policy:
        Optional :class:`~repro.p2p.routing.DeliveryPolicy` pricing
        the hops of each delivered update (defaults to none — hop
        accounting off; message counts are policy-independent).
    rehoming_after:
        Optional §3.1 liveness fix: when a peer has been absent for
        this many *consecutive* passes, the DHT re-homes its documents
        (state and all) to each document's first live successor, and
        they migrate back when the peer returns.  An owed edge (§3.1
        store) goes with its documents: it is resent from its source's
        current owner to its target's, and owes nothing once the two
        share an owner.  Without it, two peers that are never
        simultaneously present can deadlock the store-and-resend
        protocol (see docs/PROTOCOL.md §6).  Requires the network's
        Chord ring.
    faults:
        Optional seeded :class:`~repro.faults.plan.FaultPlan`.  When
        given, every batch transfer goes through the reliable-delivery
        transport (acks, timeout + exponential-backoff retries,
        duplicate suppression — docs/PROTOCOL.md §13) and the plan
        injects drops, duplicates, delays, crashes and partitions.
        ``None`` (default) keeps the pre-fault lossless code path
        byte-for-byte.
    reliability:
        Ack/retry/backoff parameters for the reliable transport;
        defaults to :class:`~repro.faults.transport.ReliabilityConfig`
        when ``faults`` is given.  Only meaningful with ``faults``.
    stagnation_window:
        Consecutive quiescent-but-undeliverable passes after which a
        faulted run aborts with a :class:`~repro.faults.transport.
        FaultDiagnostics` report instead of spinning to the pass cap.
    """

    def __init__(
        self,
        graph: LinkGraph,
        network: P2PNetwork,
        *,
        damping: float = DEFAULT_DAMPING,
        epsilon: float = 1e-3,
        init_rank: float = 1.0,
        delivery_policy: Optional[DeliveryPolicy] = None,
        rehoming_after: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
        stagnation_window: int = 25,
    ) -> None:
        check_threshold("damping", damping)
        check_threshold("epsilon", epsilon)
        check_positive("init_rank", init_rank)
        if network.placement is None:
            raise ValueError("network must have a document placement attached")
        if network.placement.num_docs != graph.num_nodes:
            raise ValueError(
                f"placement covers {network.placement.num_docs} documents, "
                f"graph has {graph.num_nodes}"
            )
        self.graph = graph
        self.network = network
        self.damping = float(damping)
        self.epsilon = float(epsilon)
        self.init_rank = float(init_rank)
        self.delivery_policy = delivery_policy
        if rehoming_after is not None:
            if rehoming_after < 1:
                raise ValueError(
                    f"rehoming_after must be >= 1, got {rehoming_after}"
                )
            if network.ring is None:
                raise ValueError("rehoming requires the network's Chord ring")
        self.rehoming_after = rehoming_after
        if reliability is not None and faults is None:
            raise ValueError("reliability config requires a fault plan")
        if faults is not None and rehoming_after is not None:
            raise ValueError(
                "fault injection and re-homing are mutually exclusive "
                "(the reliable transport subsumes store-and-resend)"
            )
        if stagnation_window < 1:
            raise ValueError(
                f"stagnation_window must be >= 1, got {stagnation_window}"
            )
        self.faults = faults
        self.reliability = (
            reliability
            if reliability is not None
            else (ReliabilityConfig() if faults is not None else None)
        )
        self.stagnation_window = int(stagnation_window)
        #: The reliable transport of the latest faulted run (exposes
        #: :class:`~repro.faults.transport.FaultStats`); ``None`` until
        #: a faulted ``run()`` starts.
        self.transport: Optional[ReliableTransport] = None
        self.traffic = TrafficSummary()

        # Ownership is mutable under re-homing; keep our own copy plus
        # the original "home" placement documents return to.
        self._peer_of = network.placement.assignment.copy()
        self._home_peer = network.placement.assignment.copy()
        #: Every document's current rank, last published value and
        #: publish version (0 until it first publishes), held by its
        #: owner; a §3.1 migration moves them by moving the owner.
        self.rank = np.full(graph.num_nodes, self.init_rank)
        self.published = self.rank.copy()
        self.version = np.zeros(graph.num_nodes, dtype=np.int64)
        self._absence = np.zeros(network.num_peers, dtype=np.int64)
        # Documents that received an update not yet folded into a
        # recompute (absent owners); blocks premature convergence.
        self._dirty = np.zeros(graph.num_nodes, dtype=bool)
        self._step: Optional[ShardRunner] = None  # step 2: :meth:`_new_step`
        # What every peer has heard of remote documents, by pair id
        # (:meth:`_index_cross_edges`): each pair's key ``receiver * N +
        # source``, the newest value heard and its version (-2: never
        # heard).  The last slot is the no-pair slot that pair id -1
        # reads: never heard, keyed past every pair.
        self._pair_key = np.array([_NO_PAIR], dtype=np.int64)
        self._pair_order = np.zeros(1, dtype=np.int64)  # pair ids by key
        self._heard_value = np.zeros(1)
        self._heard_version = np.full(1, -2, dtype=np.int64)
        # The §3.1 store: which forward edges owe their target's owner
        # an update, resent at the source's latest publish.
        self._owes = np.zeros(graph.indices.size, dtype=bool)

    @cached_property
    def _workspace(self) -> CSRWorkspace:
        """The whole-graph pull kernel, built at the first run (as the
        per-run state is, so set-up stays the placement's cost)."""
        return CSRWorkspace.from_graph(self.graph)

    def _new_step(self) -> ShardRunner:
        """Start step 2 afresh, every row in its frontier, over the rank,
        published, dirty and view arrays (the first step's gather of
        initial ranks)."""
        ws = self._workspace
        step = ShardRunner(WorkerState(
            damping=self.damping, epsilon=self.epsilon, workspace=ws,
            views={
                "rank": self.rank, "published": self.published,
                "active": np.zeros(ws.num_nodes, dtype=bool),
            },
            indptr=self.graph.indptr, assignment=self._peer_of,
            cross_edge=cross_peer_edges(ws, self._peer_of), fault_plans=[None],
        ))
        if self._step is not None:
            step.delivered = self._step.delivered
        step.dirty = self._dirty
        self._step = step
        return step

    @property
    def view(self) -> np.ndarray:
        """``view[e]`` for forward edge ``e = (s -> d)`` is what ``owner(d)``
        sees of ``s`` (:meth:`_visible`): the step's ``delivered`` array."""
        return (self._step or self._new_step()).delivered

    def _write_view(self, edges: np.ndarray, values: np.ndarray) -> None:
        """Write the view and put the edges' targets in the step's
        frontier without marking them dirty, which the stop rule reads."""
        step = self._step or self._new_step()
        step.delivered[edges] = values
        step.fresh[self._workspace.dst[edges]] = True

    def _index_cross_edges(self) -> None:
        """Number the (receiver, source) pairs for the current owners.

        The pairs are those of the cross-peer edges ``s -> d``
        (``(owner(d), s)``) and every pair already heard, numbered in
        ``receiver * N + source`` order; heard values and versions keep
        their pairs.  Builds the edge → pair array (``_pair_of_edge``,
        -1 for an edge within one peer and, at the extra last entry,
        for a row staged from no edge) and the pair → cross-edge CSR."""
        ws = self._workspace
        receiver = self._peer_of[ws.dst]
        cross = np.flatnonzero(receiver != self._peer_of[ws.src])
        held = np.flatnonzero(self._heard_version[:-1] > -2)
        keys = np.concatenate(
            [receiver[cross] * self.graph.num_nodes + ws.src[cross], self._pair_key[held]]
        )
        order = np.argsort(keys)
        keys = keys[order]
        head = np.empty(keys.size, dtype=bool)
        head[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        pair = np.cumsum(head) - 1
        count = int(head.sum())
        is_edge = order < cross.size
        edges = cross[order[is_edge]]
        self._pair_of_edge = np.full(ws.dst.size + 1, -1, dtype=np.int64)
        self._pair_of_edge[edges] = pair[is_edge]
        self._pair_edges = edges
        self._pair_indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair[is_edge], minlength=count), out=self._pair_indptr[1:])
        value = np.zeros(count + 1)
        version = np.full(count + 1, -2, dtype=np.int64)
        was = held[order[~is_edge] - cross.size]
        value[pair[~is_edge]] = self._heard_value[was]
        version[pair[~is_edge]] = self._heard_version[was]
        self._heard_value, self._heard_version = value, version
        self._pair_key = np.append(keys[head], _NO_PAIR)
        self._pair_order = np.arange(count + 1)

    def _pairs_of(self, keys: np.ndarray) -> np.ndarray:
        """Pair ids of ``receiver * N + source`` keys, -1 where the pair
        has no number."""
        order = self._pair_order
        pair = order[np.searchsorted(self._pair_key, keys, sorter=order)]
        pair[self._pair_key[pair] != keys] = -1
        return pair

    def _number(self, keys: np.ndarray) -> np.ndarray:
        """Pair ids of ``receiver * N + source`` keys, numbering new
        pairs after the others (never heard, and on no cross edge)."""
        pair = self._pairs_of(keys)
        loose = pair < 0
        if loose.any():
            new, at = np.unique(keys[loose], return_inverse=True)
            count = self._pair_key.size - 1
            pair[loose] = count + at
            # The new pairs, then the no-pair slot, which stays last.
            ids = count + np.arange(new.size + 1)
            where = np.searchsorted(self._pair_key, new, sorter=self._pair_order)
            self._pair_order = np.append(
                np.insert(self._pair_order[:-1], where, ids[:-1]), ids[-1]
            )
            self._pair_key = np.concatenate([self._pair_key[:-1], new, [_NO_PAIR]])
            self._heard_value = np.append(self._heard_value[:-1], np.zeros(new.size + 1))
            self._heard_version = np.append(
                self._heard_version[:-1], np.full(new.size + 1, -2)
            )
            self._pair_indptr = np.append(
                self._pair_indptr, np.full(new.size, self._pair_indptr[-1])
            )
        return pair

    def heard_rows(self) -> np.ndarray:
        """What every peer has heard of remote documents: one row per
        (receiver, source) pair heard, as ``key = receiver * N +
        source``, the newest value and its version, sorted by key."""
        held = np.flatnonzero(self._heard_version[:-1] > -2)
        held = held[np.argsort(self._pair_key[held])]
        rows = np.empty(held.size, dtype=_HEARD)
        rows["key"] = self._pair_key[held]
        rows["value"] = self._heard_value[held]
        rows["version"] = self._heard_version[held]
        return rows

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_passes: int = 10_000,
        availability: Optional[AvailabilityModel] = None,
        keep_history: bool = True,
        max_dead_passes: int = 50,
    ) -> RunReport:
        """Run passes until the strong convergence criterion.

        Semantics mirror the vectorized engine exactly: (1) owed edges
        whose sender and receiver are both present are resent, (2) every
        present peer recomputes the documents whose inputs changed from
        previously received values, (3) the publishers' updates are
        delivered on their out-edges to present receivers and stored for
        absent ones.  Step 3 stages update rows only under a fault plan,
        or for a delivery policy's hop pricing.

        With a fault plan attached, steps (1) and (3) instead go
        through the reliable transport: (1) becomes delayed-copy
        delivery plus ack-timeout retransmission, (3) submits each
        batch as a new flight, and a run that goes quiescent while
        undeliverable updates remain aborts with a
        :class:`~repro.faults.transport.FaultDiagnostics` report on the
        returned :class:`~repro.core.convergence.RunReport`.

        A pass whose availability sample has *zero* live peers is
        skipped (counted, never evaluated for convergence);
        ``max_dead_passes`` consecutive dead passes raise a
        ``RuntimeError`` rather than silently stalling to the cap.
        """
        check_run_budget(max_passes, max_dead_passes)
        tracker = ConvergenceTracker(self.epsilon, keep_history=keep_history)
        self._index_cross_edges()
        self._new_step()
        num_peers = self.network.num_peers
        if availability is None:
            availability = AllLive(num_peers)

        reg = get_registry()
        sink = get_trace_sink()
        obs = _SimInstruments(reg)
        faulted = self.faults is not None
        transport: Optional[ReliableTransport] = None
        detector: Optional[StagnationDetector] = None
        crash_down = None
        if faulted:
            transport = ReliableTransport(
                self.faults, self.reliability, self._deliver_copies, registry=reg
            )
            self.transport = transport
            detector = StagnationDetector(self.stagnation_window)
            crash_down = np.zeros(num_peers, dtype=np.int64)
            needs_republish: Set[int] = set()
        converged = False
        diagnostics = None
        dead_streak = 0
        with sink.span(
            "sim.run", documents=self.graph.num_nodes, peers=num_peers,
            epsilon=self.epsilon,
        ):
            for t in range(max_passes):
                live = live_mask(availability, t, num_peers)
                republished: List[_Rows] = []
                if faulted:
                    # Crash-with-state-loss: the peer's retransmit buffer
                    # dies with it (rows it stages never outlive their
                    # pass); it reboots after a spell.
                    for p in self.faults.crashes_at(t):
                        transport.note_crash(p, transport.wipe_sender(p))
                        crash_down[p] = self.faults.down_passes_for(t, p)
                        needs_republish.add(p)
                    if crash_down.any():
                        live = live & (crash_down <= 0)
                        np.subtract(
                            crash_down, 1, out=crash_down, where=crash_down > 0
                        )
                    # Crash recovery: a rebooted peer cannot know which
                    # of its sends died with it, so it re-announces its
                    # persisted published values (equal-version replays
                    # are idempotent at receivers).  Its rows go out in
                    # step 3, before the pass's own.
                    for p in sorted(needs_republish):
                        if crash_down[p] == 0 and live[p]:
                            docs = np.flatnonzero(
                                (self._peer_of == p) & (self.version > 0)
                            )
                            rows, _ = self._stage(docs)
                            transport.note_reboot_republish(len(rows[2]))
                            republished.append(rows)
                            needs_republish.discard(p)

                if not live.any():
                    # All peers down: nothing can compute or exchange —
                    # skip the pass rather than evaluating (and trivially
                    # satisfying) the convergence criterion.
                    dead_streak += 1
                    owed = self._owed()
                    obs.passes.inc()
                    obs.dead_passes.inc()
                    obs.live_peers.set(0)
                    tracker.record(
                        PassStats(
                            pass_index=t,
                            max_rel_change=0.0,
                            active_documents=0,
                            messages=0,
                            deferred_messages=owed,
                            live_peers=0,
                            computed_documents=0,
                        )
                    )
                    if dead_streak >= max_dead_passes:
                        raise starvation_error(dead_streak, t)
                    continue
                dead_streak = 0

                batches_before = self.traffic.network_batches
                hops_before = self.traffic.routing_hops
                migrations_before = self.traffic.migrations

                with obs.pass_timer:
                    # (0) §3.1 re-homing of long-absent peers' documents
                    if self.rehoming_after is not None:
                        self._absence[live] = 0
                        self._absence[~live] += 1
                        self._rehome(live)

                    # (1) store-and-resend deliveries (reliable transport:
                    #     due delayed copies + ack-timeout retransmits)
                    if faulted:
                        transport.begin_pass(t)
                        transport.tick(t, live)
                        resent = transport.pass_resent
                    else:
                        resent = self._resend(live)

                    # (2) concurrent recompute: the shard step
                    active, max_change, computed, pubs = self._recompute(t, live)

                    # (3) exchange: deliver or defer (reliable transport:
                    #     submit each batch as a new flight)
                    if faulted:
                        rows, local = self._stage(pubs)
                        self._share(local)
                        senders, dests, updates = zip(*republished, rows)
                        del republished, rows
                        batches = _batches(
                            np.concatenate(senders), np.concatenate(dests),
                            UpdateColumns.concat(updates), num_peers,
                        )
                        # The staged rows are copied into the batches.
                        del senders, dests, updates
                        deferred = int(batches.sizes[~live[batches.receivers]].sum())
                        transport.send(t, batches, live)
                        messages = transport.pass_delivered
                        resent = transport.pass_resent
                    else:
                        delivered, deferred = self._exchange(pubs, live)
                        messages = delivered + resent

                self.traffic.update_messages += messages
                self.traffic.resent_messages += resent
                self.traffic.bytes_transferred = (
                    self.traffic.update_messages * MESSAGE_SIZE_BYTES
                )
                owed = self._owed()
                n_live = int(live.sum())

                obs.passes.inc()
                obs.delivered.inc(messages)
                obs.resent.inc(resent)
                obs.bytes.inc(messages * MESSAGE_SIZE_BYTES)
                obs.batches.inc(self.traffic.network_batches - batches_before)
                obs.hops.inc(self.traffic.routing_hops - hops_before)
                obs.migrations.inc(self.traffic.migrations - migrations_before)
                obs.store_depth.observe(owed)
                obs.residual.set(max_change)
                obs.live_peers.set(n_live)
                if sink.enabled:
                    sink.event(
                        "sim.pass", pass_index=t, residual=max_change,
                        active_documents=active, messages=messages,
                        resent=resent, deferred=deferred, live_peers=n_live,
                    )

                tracker.record(
                    PassStats(
                        pass_index=t,
                        max_rel_change=max_change,
                        active_documents=active,
                        messages=messages,
                        deferred_messages=deferred,
                        live_peers=n_live,
                        computed_documents=computed,
                    )
                )
                if faulted:
                    # Abandoned (budget-exhausted) updates will never
                    # arrive: strong convergence must not be certified
                    # over them, and a quiescent system that still owes
                    # undeliverable updates is stagnant, not converging.
                    # A crash wipes its sender's flights, so a peer that
                    # has not yet rebooted and republished still owes
                    # whatever they carried.
                    quiescent = active == 0 and not self._dirty.any()
                    if (
                        quiescent
                        and transport.undeliverable_updates == 0
                        and owed == 0
                        and not needs_republish
                    ):
                        converged = True
                        break
                    if detector.observe(
                        quiescent=quiescent,
                        undelivered=transport.undeliverable_updates,
                        delivered_this_pass=messages,
                        attempts_this_pass=transport.pass_attempts,
                    ):
                        transport.note_stagnation_abort()
                        diagnostics = transport.diagnose(t, detector.streak)
                        break
                elif active == 0 and owed == 0 and not self._dirty.any():
                    converged = True
                    break
        return tracker.finish(self.ranks(), converged, diagnostics)

    # ------------------------------------------------------------------
    def _owed(self) -> int:
        """Updates still owed to receivers: the transport's unacked
        ones under a fault plan, else the §3.1 store's owed edges."""
        if self.faults is not None:
            return self.transport.unacked_updates
        return int(np.count_nonzero(self._owes))

    def _deliver(self, receivers: np.ndarray, updates: UpdateColumns) -> np.ndarray:
        """Fold rows into their receivers (``receivers[i]`` gets row
        ``i``) and write the view.  Returns which rows mutated receiver
        state.

        One grouped pass over all receivers leaves the heard table as
        :meth:`Peer.receive` leaves a peer's version maps, one row at a
        time in row order.  A row's (receiver, source) pair is its edge's
        pair; a row staged from no edge, or from an edge now within one
        peer (a re-homed target), looks its pair up and numbers it if it
        is new.  Rows are grouped by pair with a stable sort.  A row
        applies iff its version exceeds the group's floor (the version
        the receiver holds, -2 for a source never heard from, which any
        version from -1 up beats) and every earlier version in the
        group: a running maximum.  The last applied row per group is
        what the receiver keeps, and its value goes on every cross-peer
        edge of the pair: a peer sees a source at one value, not only on
        the edges the updates addressed."""
        n = receivers.size
        applied = np.zeros(n, dtype=bool)
        if not n:
            return applied
        pair = self._pair_of_edge[updates.edge]
        loose = pair < 0
        if loose.any():
            pair[loose] = self._number(
                receivers[loose] * self.graph.num_nodes + updates.source[loose]
            )
        pair, order = _stable_sort(pair)
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(pair[1:], pair[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        floor = self._heard_version[pair[starts]]
        # Offset group g by g * span so one running maximum over all
        # rows never carries from one group into the next.
        ver = updates.version[order]
        least = min(int(ver.min()), int(floor.min()))
        span = max(int(ver.max()), int(floor.max())) - least + 1
        offset = (np.cumsum(head) - 1) * span - least
        ver += offset
        floor += offset[starts]
        # Free row-length arrays early: a first pass delivers on
        # nearly every cross-peer edge.
        del offset, head
        running = ver.copy()
        running[starts] = np.maximum(ver[starts], floor)
        np.maximum.accumulate(running, out=running)
        # Each row's bar: the running maximum before it, or the floor
        # at a group's first row.
        running[1:] = running[:-1]
        running[starts] = floor
        rows = np.flatnonzero(ver > running)
        del ver, running, floor, starts
        if not rows.size:
            return applied
        applied[order[rows]] = True
        pair = pair[rows]
        last = np.empty(rows.size, dtype=bool)
        last[-1] = True
        np.not_equal(pair[1:], pair[:-1], out=last[:-1])
        pair = pair[last]
        win = order[rows[last]]
        del order, rows, last
        value = updates.value[win]
        self._heard_value[pair] = value
        self._heard_version[pair] = updates.version[win]
        pos, lens = expand_rows(self._pair_indptr, pair)
        self._write_view(self._pair_edges[pos], np.repeat(value, lens))
        return applied

    def _deliver_copies(self, copies: BatchColumns) -> np.ndarray:
        """Deliver batches over the network: :meth:`_deliver` every copy
        to its receiver, with the traffic accounting around it (targets
        marked dirty, hops priced, one §4.6.1 batch per copy).  The
        reliable transport's delivery callback.  Returns which rows
        mutated receiver state (duplicates are suppressed by the
        per-source version dedup)."""
        updates = copies.updates
        applied = self._deliver(np.repeat(copies.receivers, copies.sizes), updates)
        self._dirty[updates.target] = True
        self._price(copies)
        return applied

    def _price(self, copies: BatchColumns) -> None:
        """Count delivered batches, one §4.6.1 batch per copy, and price
        their hops under the delivery policy."""
        if self.delivery_policy is not None and len(copies):
            # Hop pricing is order-sensitive (location caches, random
            # restarts), so rows go in delivery order.
            self.traffic.routing_hops += self.delivery_policy.delivery_hops_batch(
                np.repeat(copies.senders, copies.sizes), copies.updates.target
            )
        self.traffic.network_batches += len(copies)

    def _transfer(self, batches: BatchColumns, live: np.ndarray) -> int:
        """Lossless transfer: deliver the batches for present receivers
        and leave the edges of the rest owing an update (§3.1).  Returns
        the number of updates delivered."""
        present = live[batches.receivers]
        if not present.all():
            self._owes[batches.updates.edge[np.repeat(~present, batches.sizes)]] = True
            batches = batches.select(present)
        self._deliver_copies(batches)
        return len(batches.updates)

    # ------------------------------------------------------------------
    def ranks(self) -> np.ndarray:
        """Current rank of every document."""
        return self.rank.copy()

    def _recompute(
        self, t: int, live: np.ndarray
    ) -> Tuple[int, float, int, np.ndarray]:
        """Step 2: the shard step recomputes the live frontier and gates it
        by ε; the publishers publish at their next versions.  Returns
        ``(active, max_change, computed, publishers)``, the publishers
        ascending: `_batches` groups rows by sender and keeps each
        sender's rows in staging order, so no pass sorts them by owner."""
        step = self._step or self._new_step()
        step.compute(t, live)
        step.publish()
        pubs = step.published
        self.version[pubs] += 1
        return int(pubs.size), step.max_change, step.n_live, pubs

    def _share(self, local: np.ndarray) -> None:
        """Co-located consumers see the published values on the ``local``
        edges at once and owe a recompute."""
        ws = self._workspace
        self._dirty[ws.dst[local]] = True
        self.view[local] = self.published[ws.src[local]]

    def _exchange(self, pubs: np.ndarray, live: np.ndarray) -> Tuple[int, int]:
        """Lossless step 3: every out-edge of the publishers ``pubs``
        delivers its source's published value, or owes it (§3.1) if the
        target's owner is absent.  Returns ``(delivered, deferred)``.

        Nothing can be lost, so no rows are staged: each cross-peer edge
        writes its pair in the heard table, the view and the frontier,
        as :meth:`_deliver` would fold its row.  Every delivery of one
        pair carries the same value and version, and a fresh publish's
        version beats anything its receivers heard (step 1 resent every
        owed edge with both ends present, so no delivered edge owes).
        The pairs' edges are exactly the publishers' cross-peer edges to
        their receivers.  A delivery policy prices the rows in the
        order :func:`_batches` gives them."""
        ws = self._workspace
        edges, _ = expand_rows(self.graph.indptr, pubs)
        pair = self._pair_of_edge[edges]
        cross = pair >= 0
        self._share(edges[~cross])
        edges, pair = edges[cross], pair[cross]
        targets = ws.dst[edges]
        receivers = self._peer_of[targets]
        present = live[receivers]
        deferred = edges.size - int(np.count_nonzero(present))
        if deferred:
            self._owes[edges[~present]] = True
            edges, pair = edges[present], pair[present]
            targets, receivers = targets[present], receivers[present]
        source = ws.src[edges]
        value = self.published[source]
        self._heard_value[pair] = value
        self._heard_version[pair] = self.version[source]
        self._write_view(edges, value)
        self._dirty[targets] = True
        del pair, value, targets
        if self.delivery_policy is None:
            self.traffic.network_batches += _distinct(
                self._peer_of[source] * self.network.num_peers + receivers
            )
        else:
            self._price(_batches(*self._rows(edges), self.network.num_peers))
        return int(edges.size), deferred

    def _stage(self, docs: np.ndarray) -> Tuple[_Rows, np.ndarray]:
        """Stage ``docs``' updates (:meth:`_rows`) for every out-link
        target on another peer, documents in the given order and each
        one's targets in out-link order.  Returns the rows and the
        out-edges whose target shares its source's owner."""
        pos, _ = expand_rows(self.graph.indptr, docs)
        ws = self._workspace
        remote = self._peer_of[ws.dst[pos]] != self._peer_of[ws.src[pos]]
        return self._rows(pos[remote]), pos[~remote]

    def _rows(self, edges: np.ndarray) -> _Rows:
        """One row per forward edge (position in ``graph.indices``), in
        the given order: the source's published value at its publish
        version, from the source's owner to the target's."""
        ws = self._workspace
        source, target = ws.src[edges], ws.dst[edges]
        updates = UpdateColumns(
            target=target, source=source, value=self.published[source],
            version=self.version[source], edge=edges,
        )
        return self._peer_of[source], self._peer_of[target], updates

    # ------------------------------------------------------------------
    def _resend(self, live: np.ndarray) -> int:
        """Step 1: the owed edges whose source's and target's *current*
        owners are both present are resent, staged as step 3 stages
        (:meth:`_rows`, edges ascending), at the source's latest publish.
        Returns the number of updates delivered.

        An edge owes at most one update, and any one carries the
        source's newest value, so a resend supersedes every update the
        edge missed; under re-homing an owed edge goes with its
        documents.  Every owed edge with both ends present goes here, so
        step 3 never delivers on an owed edge.
        """
        ws = self._workspace
        edges = np.flatnonzero(self._owes)
        edges = edges[live[self._peer_of[ws.src[edges]]] & live[self._peer_of[ws.dst[edges]]]]
        self._owes[edges] = False
        return self._transfer(_batches(*self._rows(edges), self.network.num_peers), live)

    def _visible(
        self, owners: np.ndarray, sources: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What each owner sees of each source, as ``(value, version,
        known)``: a co-located source's published value at its publish
        version, else the newest value the owner heard.  ``known`` is
        False where the owner never heard from a remote source."""
        pair = self._pairs_of(owners * self.graph.num_nodes + sources)
        co = self._peer_of[sources] == owners
        value = np.where(co, self.published[sources], self._heard_value[pair])
        version = np.where(co, self.version[sources], self._heard_version[pair])
        return value, version, version > -2

    def _move(self, docs: np.ndarray, owners: Union[int, np.ndarray]) -> None:
        """Move ``docs`` to ``owners`` (§3.1) with their state.  A document
        takes what its holder sees of its in-link sources (read before
        any owner changes; sources never heard from are left out) to the
        new owner under the newest-wins rule, and leaves the holder its
        published value: the holder's documents that link from it read
        the heard table once it has gone."""
        holders = self._peer_of[docs]
        rev = self.graph.reverse()
        pos, lens = expand_rows(rev.indptr, docs)
        source = rev.indices[pos]
        value, version, known = self._visible(np.repeat(holders, lens), source)
        knowledge = UpdateColumns(
            target=np.repeat(docs, lens)[known], source=source[known],
            value=value[known], version=version[known],
        )
        self._deliver(holders, UpdateColumns(
            target=docs, source=docs,
            value=self.published[docs], version=self.version[docs],
        ))
        self._peer_of[docs] = owners
        self._deliver(self._peer_of[knowledge.target], knowledge)
        self._dirty[docs] = True  # new owners owe a recompute
        self.traffic.migrations += docs.size

    def _rehome(self, live: np.ndarray) -> None:
        """Move documents off long-absent peers and back home on return."""
        ring = self.network.ring
        # §3.1: an absent peer's documents go to each one's owner on the
        # ring or, if that peer is absent too, the first live peer after
        # it: ring position -> that peer.
        at = np.array(ring.peers)
        up = np.flatnonzero(live[at])
        heir = at[up[np.searchsorted(up, np.arange(at.size)) % up.size]]
        owner_before = self._peer_of.copy()

        # Evacuate: peers absent for too long hand over everything.
        for pid in np.flatnonzero(self._absence >= self.rehoming_after).tolist():
            docs = np.flatnonzero(self._peer_of == pid)
            if docs.size:
                self._move(docs, heir[ring.document_positions(docs)])

        # Return home: a reappeared peer re-acquires its documents, in
        # peer order (a later peer reads the owners an earlier one set).
        for pid in np.flatnonzero(live & (self._absence == 0)).tolist():
            strayed = np.flatnonzero((self._home_peer == pid) & (self._peer_of != pid))
            if strayed.size:
                self._move(strayed, pid)

        moved = self._peer_of != owner_before
        # The knowledge deliveries above wrote the view through the
        # cross-edge index of the old owners; every edge whose owner
        # pair changed touches a moved document and is rewritten here.
        # An edge that joined its source's owner reads the published
        # value from then on, so it owes nothing.
        if moved.any():
            self._index_cross_edges()
            ws = self._workspace
            pos = np.flatnonzero(moved[ws.src] | moved[ws.dst])
            owners = self._peer_of[ws.dst[pos]]
            value, _, known = self._visible(owners, ws.src[pos])
            self._write_view(pos, np.where(known, value, self.init_rank))
            self._owes[pos[owners == self._peer_of[ws.src[pos]]]] = False
            # The step's live rows follow the owner array.
            (self._step or self._new_step()).placement_moved()
