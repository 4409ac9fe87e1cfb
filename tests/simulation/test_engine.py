"""Tests of the protocol-level simulator, cross-validated against the
vectorized engine — the key fidelity guarantee of the reproduction."""

import numpy as np
import pytest

from repro.core import ChaoticPagerank
from repro.graphs import broder_graph, two_peer_example
from repro.p2p import (
    CachedDirectDelivery,
    DocumentPlacement,
    FixedFractionChurn,
    P2PNetwork,
    RoutedDelivery,
)
from repro.simulation import P2PPagerankSimulation


def build(num_docs=150, num_peers=8, seed=0, ring=False):
    g = broder_graph(num_docs, seed=seed)
    pl = DocumentPlacement.random(num_docs, num_peers, seed=seed + 1)
    net = P2PNetwork(num_peers, pl, build_ring=ring)
    return g, pl, net


class TestCrossValidation:
    """The object-level protocol and the vectorized array engine must
    agree exactly: same ranks, same message totals, same pass counts."""

    @pytest.mark.parametrize("eps", [0.05, 1e-3, 1e-5])
    def test_static_identical(self, eps):
        g, pl, net = build()
        obj = P2PPagerankSimulation(g, net, epsilon=eps).run()
        vec = ChaoticPagerank(g, pl.assignment, num_peers=8, epsilon=eps).run()
        assert obj.passes == vec.passes
        assert obj.total_messages == vec.total_messages
        assert np.array_equal(obj.ranks, vec.ranks)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_static_identical_across_seeds(self, seed):
        g, pl, net = build(num_docs=120, num_peers=5, seed=seed * 10)
        obj = P2PPagerankSimulation(g, net, epsilon=1e-4).run()
        vec = ChaoticPagerank(g, pl.assignment, num_peers=5, epsilon=1e-4).run()
        assert obj.total_messages == vec.total_messages
        assert np.array_equal(obj.ranks, vec.ranks)

    def test_churn_identical(self):
        g, pl, net = build(num_docs=100, num_peers=6, seed=7)
        # identical churn sequences via identical seeds
        obj = P2PPagerankSimulation(g, net, epsilon=1e-3).run(
            availability=FixedFractionChurn(6, 0.5, seed=99), max_passes=3000
        )
        vec = ChaoticPagerank(g, pl.assignment, num_peers=6, epsilon=1e-3).run(
            availability=FixedFractionChurn(6, 0.5, seed=99), max_passes=3000
        )
        assert obj.converged and vec.converged
        assert obj.passes == vec.passes
        assert obj.total_messages == vec.total_messages
        assert np.allclose(obj.ranks, vec.ranks, rtol=1e-12)

    def test_per_pass_history_matches(self):
        g, pl, net = build(num_docs=80, num_peers=4, seed=17)
        obj = P2PPagerankSimulation(g, net, epsilon=1e-3).run()
        vec = ChaoticPagerank(g, pl.assignment, num_peers=4, epsilon=1e-3).run()
        assert [p.messages for p in obj.history] == [p.messages for p in vec.history]
        assert [p.active_documents for p in obj.history] == [
            p.active_documents for p in vec.history
        ]


class TestTrafficAccounting:
    def test_traffic_summary_populated(self):
        g, pl, net = build()
        sim = P2PPagerankSimulation(g, net, epsilon=1e-3)
        report = sim.run()
        assert sim.traffic.update_messages == report.total_messages
        assert sim.traffic.bytes_transferred == report.total_messages * 24
        assert sim.traffic.network_batches > 0
        assert sim.traffic.resent_messages == 0  # no churn

    def test_resends_counted_under_churn(self):
        g, pl, net = build(num_docs=100, num_peers=6, seed=5)
        sim = P2PPagerankSimulation(g, net, epsilon=1e-3)
        report = sim.run(
            availability=FixedFractionChurn(6, 0.5, seed=3), max_passes=3000
        )
        assert report.converged
        assert sim.traffic.resent_messages > 0

    def test_batching_reduces_network_calls(self):
        g, pl, net = build()
        sim = P2PPagerankSimulation(g, net, epsilon=1e-3)
        sim.run()
        # batches group many updates: strictly fewer calls than messages
        assert sim.traffic.network_batches < sim.traffic.update_messages


class TestDeliveryPolicies:
    def test_cached_policy_charges_hops(self):
        g, pl, net = build(ring=True)
        policy = CachedDirectDelivery(net.ring)
        sim = P2PPagerankSimulation(g, net, epsilon=1e-3, delivery_policy=policy)
        sim.run()
        stats = policy.total_stats()
        # every (sender, target) pair misses exactly once
        assert stats["misses"] > 0
        assert sim.traffic.routing_hops >= sim.traffic.update_messages

    def test_routed_mode_costs_more_than_cached(self):
        g, pl, net = build(ring=True, seed=3)
        cached = CachedDirectDelivery(net.ring)
        sim1 = P2PPagerankSimulation(g, net, epsilon=1e-3, delivery_policy=cached)
        sim1.run()
        g2, pl2, net2 = build(ring=True, seed=3)
        routed = RoutedDelivery(net2.ring)
        sim2 = P2PPagerankSimulation(g2, net2, epsilon=1e-3, delivery_policy=routed)
        sim2.run()
        # same message stream; Freenet-style routing pays more hops
        assert sim1.traffic.update_messages == sim2.traffic.update_messages
        assert sim2.traffic.routing_hops > sim1.traffic.routing_hops


class TestValidation:
    def test_requires_placement(self):
        g = broder_graph(50, seed=0)
        net = P2PNetwork(4, build_ring=False)
        with pytest.raises(ValueError, match="placement"):
            P2PPagerankSimulation(g, net)

    def test_placement_size_must_match(self):
        g = broder_graph(50, seed=0)
        pl = DocumentPlacement.random(40, 4, seed=1)
        net = P2PNetwork(4, pl, build_ring=False)
        with pytest.raises(ValueError, match="documents"):
            P2PPagerankSimulation(g, net)

    def test_bad_max_passes(self):
        g, pl, net = build()
        with pytest.raises(ValueError):
            P2PPagerankSimulation(g, net).run(max_passes=0)


class TestRehomingMovesOwnership:
    """§3.1 re-homing moves a document by changing its owner: its rank,
    published value and publish version stay where they are, bit for
    bit, and its new owner computes it from the next pass on.  Two peers
    over the six-document fixture: documents 0-2 on peer 0, 3-5 on
    peer 1."""

    def _sim(self):
        g = two_peer_example()
        placement = DocumentPlacement(np.array([0, 0, 0, 1, 1, 1]), 2)
        sim = P2PPagerankSimulation(
            g, P2PNetwork(2, placement), epsilon=1e-6, rehoming_after=1
        )
        sim.run(max_passes=2)
        return sim

    @staticmethod
    def _away(sim, peer):
        live = np.ones(2, dtype=bool)
        live[peer] = False
        sim._absence[peer] = 1
        sim._rehome(live)
        return live

    def test_evacuation_moves_every_document(self):
        sim = self._sim()
        self._away(sim, 0)
        assert not np.any(sim._peer_of == 0)
        assert np.flatnonzero(sim._peer_of == 1).tolist() == [0, 1, 2, 3, 4, 5]
        assert sim.traffic.migrations == 3

    def test_rehoming_round_trip_keeps_state(self):
        sim = self._sim()
        state = [a.copy() for a in (sim.rank, sim.published, sim.version)]
        assert sim.version[:3].any()
        self._away(sim, 0)
        for before, now in zip(state, (sim.rank, sim.published, sim.version)):
            assert now.tobytes() == before.tobytes()
        sim._absence[0] = 0
        sim._rehome(np.ones(2, dtype=bool))
        assert sim._peer_of.tolist() == [0, 0, 0, 1, 1, 1]
        assert sim.traffic.migrations == 6
        for before, now in zip(state, (sim.rank, sim.published, sim.version)):
            assert now.tobytes() == before.tobytes()

    def test_moved_documents_compute_at_their_new_owner(self):
        sim = self._sim()
        live = self._away(sim, 0)
        new = sim._workspace.pull_edges(sim.view, sim.damping)
        _, _, computed, _ = sim._recompute(2, live)
        assert computed == 6
        assert sim.rank.tolist() == new.tolist()


class TestRehomingDeterminism:
    """Re-homing migrates documents through a set-typed container (the
    dead-peer set); repeated runs with identical seeds must nevertheless
    be byte-identical."""

    def _run_once(self):
        g, pl, net = build(num_docs=100, num_peers=6, seed=7, ring=True)
        sim = P2PPagerankSimulation(g, net, epsilon=1e-3, rehoming_after=2)
        report = sim.run(
            availability=FixedFractionChurn(6, 0.6, seed=42), max_passes=3000
        )
        return report, sim

    def test_byte_identical_under_rehoming(self):
        r1, s1 = self._run_once()
        r2, s2 = self._run_once()
        assert s1.traffic.migrations > 0  # the path was actually exercised
        assert r1.ranks.tobytes() == r2.ranks.tobytes()
        assert r1.passes == r2.passes
        assert r1.total_messages == r2.total_messages
        assert [p.messages for p in r1.history] == [p.messages for p in r2.history]
        assert s1.traffic.migrations == s2.traffic.migrations
