"""Protocol-level pass simulator on the real P2P substrate.

Where :class:`repro.core.distributed.ChaoticPagerank` is the vectorized
array engine, :class:`P2PPagerankSimulation` runs the *actual
protocol*: :class:`~repro.p2p.peer.Peer` state machines exchanging
pagerank updates in per-(sender, receiver) batches, with §3.1
store-and-resend for absent peers and an optional §3.2 delivery policy
pricing DHT routing hops.

The unit of work is the pass.  Each live peer stages its whole pass as
:class:`~repro.p2p.messages.UpdateColumns`; the lossless exchange
concatenates every sender's columns in sender order, stable-sorts them
by receiver, and hands each receiver one run per pass, so a receiver
sees exactly the update sequence per-batch delivery in sender order
would produce.  Traffic is still accounted per (sender, receiver)
batch.  With a fault plan the exchange instead goes through the
reliable transport, one :class:`~repro.p2p.messages.MessageBatch`
flight per destination.  The integration suite cross-validates the
simulator against the vectorized engine: identical ranks, message
counts and pass counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro._util import check_positive, check_threshold
from repro.core.convergence import ConvergenceTracker, PassStats, RunReport
from repro.core.distributed import AvailabilityModel
from repro.core.kernels import expand_rows
from repro.core.pagerank import DEFAULT_DAMPING
from repro.faults.plan import FaultPlan
from repro.faults.transport import (
    ReliabilityConfig,
    ReliableTransport,
    StagnationDetector,
)
from repro.graphs.linkgraph import LinkGraph
from repro.obs import get_registry, get_trace_sink
from repro.p2p.messages import MESSAGE_SIZE_BYTES, MessageBatch, UpdateColumns
from repro.p2p.network import P2PNetwork
from repro.p2p.peer import Peer
from repro.p2p.routing import DeliveryPolicy

__all__ = ["P2PPagerankSimulation", "TrafficSummary"]


def _group_rows(keys: np.ndarray) -> Tuple[List[int], List[np.ndarray]]:
    """Split row positions by key.

    Returns the distinct keys in order of first appearance and, for
    each, the positions holding it in ascending order.
    """
    if not keys.size:
        return [], []
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    groups = np.split(order, starts[1:])
    # A stable sort puts each key's first position at its group's head.
    by_first = np.argsort(order[starts], kind="stable")
    return (
        sorted_keys[starts][by_first].tolist(),
        [groups[i] for i in by_first.tolist()],
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
        transfer model serialises: per pass, the distinct pairs that
        exchanged updates.
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
    """Distributed pagerank over explicit peer state machines.

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
        they migrate back when the peer returns.  Without it, two peers
        that are never simultaneously present can deadlock the
        store-and-resend protocol (see docs/PROTOCOL.md §6).  Requires
        the network's Chord ring.
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

        docs_by_peer = network.placement.docs_by_peer()
        self.peers: List[Peer] = [
            Peer(pid, docs_by_peer[pid], graph, init_rank=init_rank)
            for pid in range(network.num_peers)
        ]
        # Ownership is mutable under re-homing; keep our own copy plus
        # the original "home" placement documents return to.
        self._peer_of = network.placement.assignment.copy()
        self._home_peer = network.placement.assignment.copy()
        self._absence = np.zeros(network.num_peers, dtype=np.int64)
        # Documents that received an update not yet folded into a
        # recompute (absent owners); blocks premature convergence.
        self._dirty = np.zeros(graph.num_nodes, dtype=bool)

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

        Semantics mirror the vectorized engine exactly: (1) stored
        updates whose sender and receiver are both present are
        delivered, (2) every present peer recomputes all its documents
        from previously received values, (3) freshly staged updates are
        delivered to present receivers and stored for absent ones.

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
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        if max_dead_passes < 1:
            raise ValueError(
                f"max_dead_passes must be >= 1, got {max_dead_passes}"
            )
        tracker = ConvergenceTracker(self.epsilon, keep_history=keep_history)
        num_peers = self.network.num_peers

        reg = get_registry()
        sink = get_trace_sink()
        obs = _SimInstruments(reg)
        faulted = self.faults is not None
        transport: Optional[ReliableTransport] = None
        detector: Optional[StagnationDetector] = None
        crash_down = None
        if faulted:
            transport = ReliableTransport(
                self.faults, self.reliability, self._fault_deliver, registry=reg
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
                if availability is None:
                    live = np.ones(num_peers, dtype=bool)
                else:
                    live = np.asarray(availability.sample(t), dtype=bool)
                    if live.shape != (num_peers,):
                        raise ValueError(
                            f"availability.sample must return shape ({num_peers},)"
                        )
                if faulted:
                    # Crash-with-state-loss: wipe volatile queues and the
                    # retransmit buffer; the peer reboots after a spell.
                    for p in self.faults.crashes_at(t):
                        lost = self.peers[p].crash_volatile()
                        lost += transport.wipe_sender(p)
                        transport.note_crash(p, lost)
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
                    # are idempotent at receivers).
                    for p in sorted(needs_republish):
                        if crash_down[p] == 0 and live[p]:
                            staged = self.peers[p].reboot_republish(self._peer_of)
                            transport.note_reboot_republish(staged)
                            needs_republish.discard(p)

                if not live.any():
                    # All peers down: nothing can compute or exchange —
                    # skip the pass rather than evaluating (and trivially
                    # satisfying) the convergence criterion.
                    dead_streak += 1
                    deferred_now = (
                        transport.unacked_updates
                        if faulted
                        else sum(p.deferred_count for p in self.peers)
                    )
                    obs.passes.inc()
                    obs.dead_passes.inc()
                    obs.live_peers.set(0)
                    tracker.record(
                        PassStats(
                            pass_index=t,
                            max_rel_change=0.0,
                            active_documents=0,
                            messages=0,
                            deferred_messages=deferred_now,
                            live_peers=0,
                            computed_documents=0,
                        )
                    )
                    if dead_streak >= max_dead_passes:
                        raise RuntimeError(
                            f"no live peers for {dead_streak} consecutive "
                            f"passes (pass {t}); the availability model "
                            "starves the computation — raise availability or "
                            "max_dead_passes"
                        )
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
                        resent = self._deliver_deferred(live)

                    # (2) concurrent recompute on live peers
                    active = 0
                    max_change = 0.0
                    computed = 0
                    published_docs = []
                    for peer in self.peers:
                        if not live[peer.peer_id]:
                            continue
                        outcome = peer.compute_pass(
                            self.damping, self.epsilon, self._peer_of
                        )
                        active += outcome.active_documents
                        computed += len(peer.documents)
                        if outcome.max_rel_change > max_change:
                            max_change = outcome.max_rel_change
                        self._dirty[peer.documents] = False
                        published_docs.extend(outcome.published_docs)
                    # Published values are instantly visible to co-located
                    # consumers, who now owe a recompute (the vectorized engine
                    # marks these via its per-edge dirty pass); remote targets
                    # are marked at delivery below.  One segment expansion per
                    # pass over all publishers replaces the per-edge loop.
                    if published_docs:
                        pubs = np.asarray(published_docs, dtype=np.int64)
                        pos, lens = expand_rows(self.graph.indptr, pubs)
                        targets = self.graph.indices[pos]
                        owners = np.repeat(self._peer_of[pubs], lens)
                        self._dirty[targets[self._peer_of[targets] == owners]] = True

                    # (3) drain outboxes: deliver or defer (reliable
                    #     transport: submit each batch as a new flight)
                    if faulted:
                        for peer in self.peers:
                            if not live[peer.peer_id]:
                                continue
                            for batch in peer.outbox.batches():
                                transport.send(t, batch, live)
                        messages = transport.pass_delivered
                        resent = transport.pass_resent
                    else:
                        delivered = self._deliver_outboxes(live)
                        messages = delivered + resent

                self.traffic.update_messages += messages
                self.traffic.resent_messages += resent
                self.traffic.bytes_transferred = (
                    self.traffic.update_messages * MESSAGE_SIZE_BYTES
                )
                deferred_now = (
                    transport.unacked_updates
                    if faulted
                    else sum(p.deferred_count for p in self.peers)
                )
                n_live = int(live.sum())

                obs.passes.inc()
                obs.delivered.inc(messages)
                obs.resent.inc(resent)
                obs.bytes.inc(messages * MESSAGE_SIZE_BYTES)
                obs.batches.inc(self.traffic.network_batches - batches_before)
                obs.hops.inc(self.traffic.routing_hops - hops_before)
                obs.migrations.inc(self.traffic.migrations - migrations_before)
                obs.store_depth.observe(deferred_now)
                obs.residual.set(max_change)
                obs.live_peers.set(n_live)
                if sink.enabled:
                    sink.event(
                        "sim.pass", pass_index=t, residual=max_change,
                        active_documents=active, messages=messages,
                        resent=resent, deferred=deferred_now, live_peers=n_live,
                    )

                tracker.record(
                    PassStats(
                        pass_index=t,
                        max_rel_change=max_change,
                        active_documents=active,
                        messages=messages,
                        deferred_messages=deferred_now,
                        live_peers=n_live,
                        computed_documents=computed,
                    )
                )
                if faulted:
                    # Abandoned (budget-exhausted) updates will never
                    # arrive: strong convergence must not be certified
                    # over them, and a quiescent system that still owes
                    # undeliverable updates is stagnant, not converging.
                    quiescent = active == 0 and not self._dirty.any()
                    if (
                        quiescent
                        and transport.undeliverable_updates == 0
                        and deferred_now == 0
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
                elif active == 0 and deferred_now == 0 and not self._dirty.any():
                    converged = True
                    break
        return tracker.finish(self.ranks(), converged, diagnostics)

    # ------------------------------------------------------------------
    def _fault_deliver(self, batch: MessageBatch) -> int:
        """Reliable-transport delivery callback: hand a batch to its
        receiver, mirroring the lossless path's bookkeeping (dirty
        marking, hop charges, batch count).  Returns how many updates
        mutated receiver state (duplicates are suppressed by the
        per-source version dedup)."""
        applied = self.peers[batch.receiver_peer].receive_batch(batch.updates)
        targets = [u.target_doc for u in batch.updates]
        dirty = self._dirty
        for target in targets:
            dirty[target] = True
        self._charge_hops(batch.sender_peer, targets)
        self.traffic.network_batches += 1
        return applied

    # ------------------------------------------------------------------
    def ranks(self) -> np.ndarray:
        """Current rank of every document, gathered from the peers."""
        out = np.empty(self.graph.num_nodes, dtype=np.float64)
        for peer in self.peers:
            for doc, value in peer.rank.items():
                out[doc] = value
        return out

    # ------------------------------------------------------------------
    def _deliver_deferred(self, live: np.ndarray) -> int:
        """Step 1: present senders flush stored updates to present
        receivers.  Returns the number of updates delivered.

        Under re-homing a stored update's target document may have
        moved, so each update is re-resolved to the document's *current*
        owner before delivery (and stored again if that owner is absent).
        """
        runs: List[Tuple[int, np.ndarray, UpdateColumns]] = []
        for peer in self.peers:
            if not live[peer.peer_id] or not peer.deferred:
                continue
            if self.rehoming_after is None:
                for dest in [d for d in peer.deferred if live[d]]:
                    updates = peer.take_deferred_columns(dest)
                    runs.append(
                        (peer.peer_id, np.full(len(updates), dest, np.int64), updates)
                    )
                continue
            updates = UpdateColumns.concat(
                [peer.take_deferred_columns(d) for d in list(peer.deferred)]
            )
            runs.append((peer.peer_id, self._peer_of[updates.target], updates))
        return self._exchange(runs, live)

    def _deliver_outboxes(self, live: np.ndarray) -> int:
        """Step 3: route every live peer's freshly staged updates.
        Returns updates delivered (stored ones are counted when finally
        delivered)."""
        runs: List[Tuple[int, np.ndarray, UpdateColumns]] = []
        for peer in self.peers:
            # An absent peer cannot have computed this pass, but it may
            # hold a stale outbox in pathological uses; leave it.
            if live[peer.peer_id] and len(peer.outbox):
                dests, updates = peer.outbox.take_columns()
                runs.append((peer.peer_id, dests, updates))
        return self._exchange(runs, live)

    def _exchange(
        self, runs: List[Tuple[int, np.ndarray, UpdateColumns]], live: np.ndarray
    ) -> int:
        """Deliver ``(sender, dest_peers, updates)`` runs, given in sender
        order: every present receiver gets one run holding its updates
        in sender order (staging order within a sender); updates for
        absent receivers are stored with their senders.  Each distinct
        (sender, receiver) pair is one §4.6.1 batch transfer.  Returns
        the number of updates delivered."""
        if not runs:
            return 0
        senders = np.concatenate(
            [np.full(len(updates), pid, np.int64) for pid, _, updates in runs]
        )
        dests = np.concatenate([d for _, d, _ in runs])
        updates = UpdateColumns.concat([u for _, _, u in runs])
        num_peers = self.network.num_peers
        pairs = senders * num_peers + dests
        present = live[dests]
        if self.delivery_policy is not None or not present.all():
            # Hop pricing and storing are per batch and order-sensitive
            # (location caches), so walk the batches in the order the
            # senders staged them.
            keys, rows = _group_rows(pairs)
            for key, idx in zip(keys, rows):
                sender, dest = divmod(key, num_peers)
                if live[dest]:
                    self._charge_hops(sender, updates.target[idx].tolist())
                else:
                    self.peers[sender].defer(dest, updates.take(idx))
        delivered = np.flatnonzero(present)
        if not delivered.size:
            return 0
        self.traffic.network_batches += int(np.unique(pairs[delivered]).size)
        for receiver, idx in zip(*_group_rows(dests[delivered])):
            self.peers[receiver].receive_batch(updates.take(delivered[idx]))
        self._dirty[updates.target[delivered]] = True
        return int(delivered.size)

    def _rehome(self, live: np.ndarray) -> None:
        """Move documents off long-absent peers and back home on return."""
        from repro.p2p.guid import document_guid

        ring = self.network.ring
        dead = set(int(p) for p in np.flatnonzero(~live))
        threshold = self.rehoming_after

        # Evacuate: peers absent for too long surrender everything —
        # document state plus the in-link knowledge it was computed
        # from (exported before surrendering, since sources may be
        # co-migrating local documents).
        for peer in self.peers:
            pid = peer.peer_id
            if self._absence[pid] < threshold or peer.documents.size == 0:
                continue
            docs = [int(d) for d in peer.documents]
            knowledge = peer.export_inlink_knowledge(docs)
            state = peer.surrender_documents(docs)
            by_doc = {u.target_doc: [] for u in knowledge}
            for u in knowledge:
                by_doc[u.target_doc].append(u)
            for doc in docs:
                new_owner = ring.owner_excluding(document_guid(doc), dead)
                self.peers[new_owner].adopt_documents({doc: state[doc]})
                self.peers[new_owner].receive_batch(by_doc.get(doc, []))
                self._peer_of[doc] = new_owner
                self._dirty[doc] = True  # new owner owes a recompute
                self.traffic.migrations += 1

        # Return home: a reappeared peer re-acquires its documents.
        for pid in np.flatnonzero(live):
            pid = int(pid)
            if self._absence[pid] != 0:
                continue
            strayed = np.flatnonzero(
                (self._home_peer == pid) & (self._peer_of != pid)
            )
            for doc in strayed:
                doc = int(doc)
                holder = self.peers[int(self._peer_of[doc])]
                knowledge = holder.export_inlink_knowledge([doc])
                state = holder.surrender_documents([doc])
                self.peers[pid].adopt_documents(state)
                self.peers[pid].receive_batch(knowledge)
                self._peer_of[doc] = pid
                self._dirty[doc] = True
                self.traffic.migrations += 1

    def _charge_hops(self, sender_peer: int, targets: List[int]) -> None:
        if self.delivery_policy is None:
            return
        self.traffic.routing_hops += self.delivery_policy.delivery_hops_batch(
            sender_peer, targets
        )
