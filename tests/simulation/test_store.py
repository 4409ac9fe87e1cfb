"""Tests of the protocol simulator's §3.1 store: updates for absent
receivers stay with their senders and are resent in a later pass."""

import numpy as np

from repro.faults import FaultPlan, FaultSpec
from repro.graphs import broder_graph, two_peer_example
from repro.p2p import (
    DocumentPlacement,
    FixedFractionChurn,
    P2PNetwork,
    PagerankUpdate,
)
from repro.p2p.messages import BatchColumns, UpdateColumns
from repro.simulation import P2PPagerankSimulation


def simulation(assignment):
    """A simulator over the six-document fixture, ready to transfer."""
    g = two_peer_example()
    num_peers = max(assignment) + 1
    placement = DocumentPlacement(np.array(assignment), num_peers)
    net = P2PNetwork(num_peers, placement, build_ring=False)
    sim = P2PPagerankSimulation(g, net)
    sim._index_cross_edges()
    return sim


def staged(graph, updates):
    """``updates`` as the simulator stages them: each row carries the
    position in ``graph.indices`` of the link it was staged from."""
    cols = UpdateColumns.from_updates(updates)
    edge = [
        graph.indptr[u.source_doc] + graph.out_links(u.source_doc).tolist().index(u.target_doc)
        for u in updates
    ]
    return UpdateColumns(
        cols.target, cols.source, cols.value, cols.version, np.array(edge, dtype=np.int64)
    )


def send(sim, sender, receiver, updates, live):
    """Transfer one batch; returns the number of updates delivered."""
    batch = BatchColumns(
        np.array([sender]), np.array([receiver]), np.array([0, len(updates)]),
        staged(sim.graph, updates),
    )
    return sim._transfer(batch, np.array(live))


def recorded_batches(sim):
    """Record every batch the simulator delivers, as (receiver, updates)."""
    seen = []
    deliver = sim._deliver_copies

    def record(copies):
        bounds = copies.offsets.tolist()
        for i, receiver in enumerate(copies.receivers.tolist()):
            rows = copies.updates.take(slice(bounds[i], bounds[i + 1]))
            seen.append((receiver, list(rows)))
        return deliver(copies)

    sim._deliver_copies = record
    return seen


class TestDeferral:
    def test_defer_and_take(self):
        sim = simulation([0, 0, 0, 1, 1, 1])
        ups = [PagerankUpdate(3, 0, 1.5), PagerankUpdate(5, 2, 1.5)]
        assert send(sim, 0, 1, ups, [True, False]) == 0
        assert sim._owed() == 2
        seen = recorded_batches(sim)
        assert sim._resend(np.array([True, True])) == 2
        assert seen == [(1, ups)]
        assert sim._owed() == 0
        assert sim.heard_rows()[["key", "value"]].tolist() == [(1 * 6 + 0, 1.5), (1 * 6 + 2, 1.5)]
        assert sim._resend(np.array([True, True])) == 0

    def test_newest_value_wins(self):
        sim = simulation([0, 0, 0, 1, 1, 1])
        send(sim, 0, 1, [PagerankUpdate(3, 0, 1.0)], [True, False])
        send(sim, 0, 1, [PagerankUpdate(3, 0, 2.0)], [True, False])
        assert list(sim._stored_updates) == [PagerankUpdate(3, 0, 2.0)]

    def test_distinct_pairs_coexist(self):
        sim = simulation([0, 0, 0, 1, 1, 1])
        send(sim, 0, 1, [PagerankUpdate(3, 0, 1.0)], [True, False])
        send(sim, 0, 1, [PagerankUpdate(5, 2, 1.0)], [True, False])
        assert sim._owed() == 2

    def test_stores_resend_in_opening_order(self):
        # Documents 3 and 4 on peer 1, 5 on peer 2.  Peer 0's store for
        # peer 1 opens first; a later batch joins it and keeps its
        # place, even though it supersedes every row stored before.
        sim = simulation([0, 0, 0, 1, 1, 2])
        down = [True, False, False]
        send(sim, 0, 1, [PagerankUpdate(3, 0, 1.0)], down)
        send(sim, 0, 2, [PagerankUpdate(5, 2, 1.0)], down)
        later = [PagerankUpdate(3, 0, 2.0), PagerankUpdate(4, 0, 1.0)]
        send(sim, 0, 1, later, down)
        seen = recorded_batches(sim)
        assert sim._resend(np.array([True, True, True])) == 3
        assert seen == [(1, later), (2, [PagerankUpdate(5, 2, 1.0)])]

    def test_resend_waits_for_sender_and_receiver(self):
        sim = simulation([0, 0, 0, 1, 1, 1])
        send(sim, 0, 1, [PagerankUpdate(3, 0, 1.0)], [True, False])
        assert sim._resend(np.array([True, False])) == 0
        assert sim._resend(np.array([False, True])) == 0
        assert sim._owed() == 1
        assert sim._resend(np.array([True, True])) == 1
        assert sim._owed() == 0

    def test_resent_row_whose_target_joined_its_source_is_folded(self):
        """Under re-homing a stored row goes to its target's current
        owner.  If that is its source's owner, the row's link is no
        longer a cross-peer edge; the row is still folded into what
        that peer has heard, and gates later rows from the source."""
        g = two_peer_example()
        placement = DocumentPlacement(np.array([0, 0, 0, 1, 1, 1]), 2)
        sim = P2PPagerankSimulation(g, P2PNetwork(2, placement), rehoming_after=1)
        sim._index_cross_edges()
        row = PagerankUpdate(3, 0, 1.5, version=1)
        send(sim, 0, 1, [row], [True, False])
        sim._peer_of[3] = 0
        sim._index_cross_edges()
        assert sim._resend(np.array([True, False])) == 1
        assert sim.heard_rows().tolist() == [(0 * 6 + 0, 1.5, 1)]
        replay = staged(g, [PagerankUpdate(3, 0, 9.0, version=1)])
        assert sim._deliver(np.array([0]), replay).tolist() == [False]
        assert sim._owed() == 0

    def test_store_bounded_mid_churn(self):
        """§3.1's state bound, while updates are stored: a sender holds
        at most one row per out-link of its documents."""
        g = broder_graph(200, seed=63)
        pl = DocumentPlacement.random(g.num_nodes, 6, seed=64)
        sim = P2PPagerankSimulation(g, P2PNetwork(6, pl, build_ring=False), epsilon=1e-3)
        sim.run(availability=FixedFractionChurn(6, 0.5, seed=65), max_passes=6)
        assert sim._owed() > 0
        stored = np.bincount(sim._stored["sender"], minlength=6)
        out_deg = g.out_degrees()
        for p in range(6):
            assert stored[p] <= int(out_deg[sim._peer_of == p].sum())


class TestCrash:
    def test_faulted_run_stores_nothing(self):
        """Under a fault plan the reliable transport holds every
        undelivered row, so a crash loses the outbox and the sender's
        flights; the §3.1 store stays empty."""
        g = broder_graph(120, seed=5)
        pl = DocumentPlacement.random(g.num_nodes, 6, seed=6)
        spec = FaultSpec(drop_rate=0.1, crashes=((3, 0), (5, 2)), crash_down_passes=3)
        sim = P2PPagerankSimulation(
            g, P2PNetwork(6, pl, build_ring=False), epsilon=1e-3,
            faults=FaultPlan(spec, seed=7),
        )
        sim.run(availability=FixedFractionChurn(6, 0.75, seed=8), max_passes=400)
        assert sim.transport.stats.crashes == 2
        assert sim._stored.size == 0 and len(sim._stored_updates) == 0
