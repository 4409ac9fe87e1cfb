"""Failure injection: duplicate, reordered, and stale deliveries;
degenerate graphs; hostile availability patterns."""

import numpy as np
import pytest

from repro.core import ChaoticPagerank, pagerank_reference
from repro.graphs import LinkGraph, broder_graph, chain_graph
from repro.p2p import (
    DocumentPlacement,
    P2PNetwork,
    PagerankUpdate,
    Peer,
)
from repro.simulation import P2PPagerankSimulation


class TestMessageFaults:
    @pytest.fixture()
    def peer(self):
        g = LinkGraph.from_edges([(0, 1), (1, 0), (2, 1)])
        return Peer(0, [0, 1, 2], g)

    def test_duplicate_delivery_idempotent(self, peer):
        u = PagerankUpdate(target_doc=0, source_doc=5, value=2.0, version=3)
        peer.receive(u)
        before = dict(peer.remote_values)
        peer.receive(u)
        peer.receive(u)
        assert peer.remote_values == before

    def test_reordered_stale_update_discarded(self, peer):
        fresh = PagerankUpdate(target_doc=0, source_doc=5, value=2.0, version=7)
        stale = PagerankUpdate(target_doc=0, source_doc=5, value=9.0, version=3)
        peer.receive(fresh)
        peer.receive(stale)  # arrives later, is older
        assert peer.visible_value(5) == 2.0

    def test_equal_version_resend_accepted(self, peer):
        a = PagerankUpdate(target_doc=0, source_doc=5, value=2.0, version=3)
        peer.receive(a)
        # §3.1 resends carry the same version; they must not be dropped.
        peer.receive(PagerankUpdate(target_doc=0, source_doc=5, value=2.0, version=3))
        assert peer.visible_value(5) == 2.0

    def test_unversioned_mode_last_write_wins(self):
        g = LinkGraph.from_edges([(0, 1)])
        peer = Peer(0, [0, 1], g, honor_versions=False)
        peer.receive(PagerankUpdate(0, 5, 2.0, version=7))
        peer.receive(PagerankUpdate(0, 5, 9.0, version=3))
        assert peer.visible_value(5) == 9.0

    def test_updates_for_unrelated_documents_harmless(self, peer):
        peer.receive(PagerankUpdate(target_doc=99, source_doc=98, value=1.0))
        # no exception; unrelated knowledge is stored but unused
        assert peer.visible_value(98) == 1.0


class TestDegenerateGraphs:
    def test_all_dangling(self):
        g = LinkGraph.from_edges([], num_nodes=10)
        report = ChaoticPagerank(g, epsilon=1e-4).run()
        assert report.converged
        assert np.allclose(report.ranks, 0.15)

    def test_two_node_cycle(self):
        g = LinkGraph.from_edges([(0, 1), (1, 0)])
        report = ChaoticPagerank(g, epsilon=1e-9).run()
        assert report.converged
        assert np.allclose(report.ranks, 1.0)

    def test_long_chain_converges(self):
        g = chain_graph(200)
        report = ChaoticPagerank(g, epsilon=1e-8).run()
        assert report.converged
        ref = pagerank_reference(g).ranks
        assert np.allclose(report.ranks, ref, rtol=1e-6)

    def test_single_document_network(self):
        g = LinkGraph.from_edges([], num_nodes=1)
        pl = DocumentPlacement.random(1, 1, seed=0)
        net = P2PNetwork(1, pl, build_ring=False)
        report = P2PPagerankSimulation(g, net, epsilon=1e-3).run()
        assert report.converged


class TestHostileAvailability:
    def test_one_peer_never_up_blocks_strong_convergence(self):
        g = broder_graph(100, seed=0)
        pl = DocumentPlacement.random(100, 4, seed=1)
        engine = ChaoticPagerank(g, pl.assignment, num_peers=4, epsilon=1e-3)

        class PeerZeroDead:
            def sample(self, t):
                mask = np.ones(4, dtype=bool)
                mask[0] = False
                return mask

        report = engine.run(availability=PeerZeroDead(), max_passes=500)
        # documents on peer 0 never recompute: the strong criterion
        # cannot be met, and the engine must say so rather than lie.
        assert not report.converged

    def test_rotating_dead_peer_converges(self):
        # Three of four peers up, the dead one rotating: every pair of
        # peers coexists regularly, so store-and-resend always drains.
        g = broder_graph(150, seed=2)
        pl = DocumentPlacement.random(150, 4, seed=3)
        engine = ChaoticPagerank(g, pl.assignment, num_peers=4, epsilon=1e-3)

        class RotatingDead:
            def sample(self, t):
                mask = np.ones(4, dtype=bool)
                mask[t % 4] = False
                return mask

        report = engine.run(availability=RotatingDead(), max_passes=5000)
        assert report.converged
        ref = pagerank_reference(g).ranks
        rel = np.abs(report.ranks - ref) / ref
        assert np.percentile(rel, 99) < 0.02

    def test_disjoint_alternation_deadlocks_resends(self):
        """§3.1's store-and-resend requires sender and receiver up at
        the same time.  With disjoint alternating halves, cross-half
        pairs never coexist: stored updates can never drain, and the
        engine must report non-convergence rather than a false
        certificate (a real deployment would re-home the documents)."""
        g = broder_graph(150, seed=2)
        pl = DocumentPlacement.random(150, 4, seed=3)
        engine = ChaoticPagerank(g, pl.assignment, num_peers=4, epsilon=1e-3)

        class DisjointAlternating:
            def sample(self, t):
                mask = np.zeros(4, dtype=bool)
                mask[t % 2 :: 2] = True
                return mask

        report = engine.run(availability=DisjointAlternating(), max_passes=800)
        assert not report.converged
        # ...yet the system has quiesced: nothing left it *can* do.
        assert report.history[-1].active_documents == 0
        assert report.history[-1].messages == 0


class TestRehoming:
    """§3.1 liveness fix: long-absent peers' documents re-home to live
    DHT successors and migrate back on return."""

    @pytest.fixture(scope="class")
    def setting(self):
        g = broder_graph(150, seed=2)
        pl = DocumentPlacement.random(150, 4, seed=3)
        ref = pagerank_reference(g).ranks
        return g, pl, ref

    def test_permanently_dead_peer_now_converges(self, setting):
        g, pl, ref = setting

        class PeerZeroDead:
            def sample(self, t):
                m = np.ones(4, dtype=bool)
                m[0] = False
                return m

        net = P2PNetwork(4, pl)
        sim = P2PPagerankSimulation(g, net, epsilon=1e-4, rehoming_after=3)
        report = sim.run(availability=PeerZeroDead(), max_passes=2000)
        assert report.converged
        assert sim.traffic.migrations > 0
        rel = np.abs(report.ranks - ref) / ref
        assert np.percentile(rel, 99) < 0.01
        # peer 0 holds nothing any more
        assert not np.any(sim._peer_of == 0)

    def test_documents_return_home(self, setting):
        g, pl, ref = setting

        class DownThenUp:
            def sample(self, t):
                m = np.ones(4, dtype=bool)
                if 2 <= t < 12:
                    m[1] = False
                return m

        net = P2PNetwork(4, pl)
        sim = P2PPagerankSimulation(g, net, epsilon=1e-4, rehoming_after=3)
        report = sim.run(availability=DownThenUp(), max_passes=2000)
        assert report.converged
        assert np.array_equal(sim._peer_of, pl.assignment)
        rel = np.abs(report.ranks - ref) / ref
        # migration churn costs a little accuracy; stays a small
        # multiple of epsilon
        assert np.percentile(rel, 99) < 0.01

    def test_no_rehoming_without_ring(self, setting):
        g, pl, _ = setting
        net = P2PNetwork(4, pl, build_ring=False)
        with pytest.raises(ValueError, match="ring"):
            P2PPagerankSimulation(g, net, rehoming_after=3)

    def test_rehoming_threshold_validated(self, setting):
        g, pl, _ = setting
        net = P2PNetwork(4, pl)
        with pytest.raises(ValueError, match="rehoming_after"):
            P2PPagerankSimulation(g, net, rehoming_after=0)

    def test_rehoming_noop_when_always_up(self, setting):
        g, pl, _ = setting
        net = P2PNetwork(4, pl)
        sim = P2PPagerankSimulation(g, net, epsilon=1e-3, rehoming_after=2)
        report = sim.run()
        assert report.converged
        assert sim.traffic.migrations == 0
