"""Tests of the protocol simulator's §3.1 store: an update for an absent
receiver leaves its edge owing one, and the edge is resent at its
source's latest publish in a later pass."""

import numpy as np

from repro.faults import FaultPlan, FaultSpec
from repro.graphs import broder_graph, two_peer_example
from repro.p2p import (
    DocumentPlacement,
    FixedFractionChurn,
    P2PNetwork,
    PagerankUpdate,
)
from repro.simulation import P2PPagerankSimulation
from repro.simulation.engine import _batches


def simulation(assignment, **kwargs):
    """A simulator over the six-document fixture, ready to transfer.

    Its links: 0 -> 1, 3, 4; 1 -> 2; 2 -> 0, 5; 3 -> 0, 4; 4 -> 1, 5;
    5 -> 3."""
    g = two_peer_example()
    num_peers = max(assignment) + 1
    placement = DocumentPlacement(np.array(assignment), num_peers)
    net = P2PNetwork(num_peers, placement, build_ring="rehoming_after" in kwargs)
    sim = P2PPagerankSimulation(g, net, **kwargs)
    sim._index_cross_edges()
    return sim


def publish(sim, values, live):
    """Publish ``values`` (document -> value) at each document's next
    version and transfer the staged rows as step 3 does.  Returns the
    number of updates delivered."""
    docs = np.array(sorted(values))
    sim.published[docs] = [values[d] for d in docs.tolist()]
    sim.version[docs] += 1
    rows, _ = sim._stage(docs)
    return sim._transfer(_batches(*rows, sim.network.num_peers), np.array(live))


def owed(sim):
    """The owed edges, as ``(source, target)`` pairs in edge order."""
    ws = sim._workspace
    edges = np.flatnonzero(sim._owes)
    return list(zip(ws.src[edges].tolist(), ws.dst[edges].tolist()))


def recorded_batches(sim):
    """Record every batch the simulator delivers, as (sender, receiver,
    updates)."""
    seen = []
    deliver = sim._deliver_copies

    def record(copies):
        bounds = copies.offsets.tolist()
        for i, (sender, receiver) in enumerate(
            zip(copies.senders.tolist(), copies.receivers.tolist())
        ):
            rows = copies.updates.take(slice(bounds[i], bounds[i + 1]))
            seen.append((sender, receiver, list(rows)))
        return deliver(copies)

    sim._deliver_copies = record
    return seen


class TestDeferral:
    def test_defer_and_take(self):
        sim = simulation([0, 0, 0, 1, 1, 1])
        assert publish(sim, {0: 1.5, 2: 1.5}, [True, False]) == 0
        assert owed(sim) == [(0, 3), (0, 4), (2, 5)]
        assert sim._owed() == 3
        seen = recorded_batches(sim)
        assert sim._resend(np.array([True, True])) == 3
        assert seen == [(0, 1, [
            PagerankUpdate(3, 0, 1.5, 1), PagerankUpdate(4, 0, 1.5, 1),
            PagerankUpdate(5, 2, 1.5, 1),
        ])]
        assert sim._owed() == 0
        assert sim.heard_rows().tolist() == [(1 * 6 + 0, 1.5, 1), (1 * 6 + 2, 1.5, 1)]
        assert sim._resend(np.array([True, True])) == 0

    def test_newest_value_wins(self):
        """An edge owes at most one update: its source's newest."""
        sim = simulation([0, 0, 0, 1, 1, 1])
        publish(sim, {0: 1.0}, [True, False])
        publish(sim, {0: 2.0}, [True, False])
        assert owed(sim) == [(0, 3), (0, 4)]
        seen = recorded_batches(sim)
        assert sim._resend(np.array([True, True])) == 2
        assert seen == [(0, 1, [PagerankUpdate(3, 0, 2.0, 2), PagerankUpdate(4, 0, 2.0, 2)])]

    def test_distinct_pairs_coexist(self):
        sim = simulation([0, 0, 0, 1, 1, 1])
        publish(sim, {0: 1.0}, [True, False])
        publish(sim, {2: 1.0}, [True, False])
        assert owed(sim) == [(0, 3), (0, 4), (2, 5)]

    def test_resend_carries_current_value_and_version(self):
        """A resend reads the source's latest publish, not the one that
        left the edge owing."""
        sim = simulation([0, 0, 0, 1, 1, 1])
        publish(sim, {2: 1.0}, [True, False])
        sim.published[2], sim.version[2] = 7.0, 4
        seen = recorded_batches(sim)
        assert sim._resend(np.array([True, True])) == 1
        assert seen == [(0, 1, [PagerankUpdate(5, 2, 7.0, 4)])]
        assert sim.heard_rows().tolist() == [(1 * 6 + 2, 7.0, 4)]

    def test_resend_waits_for_sender_and_receiver(self):
        sim = simulation([0, 0, 0, 1, 1, 1])
        publish(sim, {2: 1.0}, [True, False])
        assert sim._resend(np.array([True, False])) == 0
        assert sim._resend(np.array([False, True])) == 0
        assert sim._owed() == 1
        assert sim._resend(np.array([True, True])) == 1
        assert sim._owed() == 0

    def test_rehomed_documents_take_their_owed_edges(self):
        """A re-homed source's owed edge is resent by its new owner, and
        the resend waits for the source's current owner only."""
        sim = simulation([0, 0, 0, 1, 1, 2], rehoming_after=1)
        publish(sim, {4: 1.5}, [True, True, False])
        assert owed(sim) == [(4, 5)]
        assert sim._resend(np.array([True, False, True])) == 0
        sim._absence[1] = 1
        sim._rehome(np.array([True, False, False]))
        assert sim._peer_of.tolist() == [0, 0, 0, 0, 0, 2]
        assert owed(sim) == [(4, 5)]
        seen = recorded_batches(sim)
        assert sim._resend(np.array([True, False, True])) == 1
        assert seen == [(0, 2, [PagerankUpdate(5, 4, 1.5, 1)])]
        assert sim._owed() == 0

    def test_colocated_edge_owes_nothing(self):
        """An owed edge whose target joins its source's owner is settled
        by the move, which shows the target the published value."""
        sim = simulation([0, 0, 0, 1, 1, 1], rehoming_after=1)
        publish(sim, {0: 1.5}, [True, False])
        assert owed(sim) == [(0, 3), (0, 4)]
        sim._absence[1] = 1
        sim._rehome(np.array([True, False]))
        assert sim._peer_of.tolist() == [0] * 6
        assert sim._owed() == 0
        edges = sim.graph.indptr[0] + np.array([1, 2])
        assert sim.view[edges].tolist() == [1.5, 1.5]
        assert sim._resend(np.array([True, False])) == 0

    def test_store_bounded_mid_churn(self):
        """§3.1's state bound, while updates are stored: a sender owes
        at most one update per out-link of its documents."""
        g = broder_graph(200, seed=63)
        pl = DocumentPlacement.random(g.num_nodes, 6, seed=64)
        sim = P2PPagerankSimulation(g, P2PNetwork(6, pl, build_ring=False), epsilon=1e-3)
        sim.run(availability=FixedFractionChurn(6, 0.5, seed=65), max_passes=6)
        assert sim._owed() > 0
        senders = sim._peer_of[sim._workspace.src[sim._owes]]
        stored = np.bincount(senders, minlength=6)
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
        assert not sim._owes.any()
