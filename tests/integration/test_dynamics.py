"""Integration tests of the dynamic behaviours (§3): churn resilience,
insert/delete lifecycles, and the store-and-resend protocol."""

import numpy as np

from repro.core import (
    ChaoticPagerank,
    delete_document,
    insert_document,
    pagerank_reference,
)
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, FixedFractionChurn, P2PNetwork
from repro.simulation import P2PPagerankSimulation


class TestChurnResilience:
    def test_no_updates_lost_under_churn(self):
        """§3.1's guarantee: store-and-resend means churn affects
        *when* updates arrive, never *whether*.  The churn run must
        reach the same quality band as the static run."""
        g = broder_graph(600, seed=60)
        pl = DocumentPlacement.random(g.num_nodes, 15, seed=61)
        ref = pagerank_reference(g).ranks
        eps = 1e-4
        engine = ChaoticPagerank(g, pl.assignment, num_peers=15, epsilon=eps)
        static = engine.run()
        churned = engine.run(
            availability=FixedFractionChurn(15, 0.5, seed=62), max_passes=20_000
        )
        assert static.converged and churned.converged
        for report in (static, churned):
            rel = np.abs(report.ranks - ref) / ref
            assert np.percentile(rel, 99) < 0.01

    def test_object_sim_deferred_state_bounded(self):
        """§3.1's state bound: the updates a peer owes never exceed the
        sum of out-links over its documents."""
        g = broder_graph(200, seed=63)
        pl = DocumentPlacement.random(g.num_nodes, 6, seed=64)
        net = P2PNetwork(6, pl, build_ring=False)
        sim = P2PPagerankSimulation(g, net, epsilon=1e-3)
        sim.run(availability=FixedFractionChurn(6, 0.5, seed=65), max_passes=2000)
        out_deg = g.out_degrees()
        stored = np.bincount(sim._peer_of[sim._workspace.src[sim._owes]], minlength=6)
        for p in range(6):
            bound = int(out_deg[sim._peer_of == p].sum())
            assert stored[p] <= bound


class TestDocumentLifecycle:
    def test_grow_graph_incrementally(self):
        """Insert several documents one at a time; the incrementally
        maintained ranks must track full recomputation throughout."""
        g = broder_graph(300, seed=70)
        ranks = pagerank_reference(g).ranks
        rng = np.random.default_rng(71)
        for step in range(5):
            links = rng.choice(g.num_nodes, size=3, replace=False)
            g, ranks, _ = insert_document(g, links.tolist(), ranks, epsilon=1e-6)
        ref = pagerank_reference(g).ranks
        rel = np.abs(ranks - ref) / ref
        assert np.percentile(rel, 99) < 0.02

    def test_shrink_graph_incrementally(self):
        g = broder_graph(300, seed=72)
        ranks = pagerank_reference(g).ranks
        rng = np.random.default_rng(73)
        for step in range(5):
            victim = int(rng.integers(0, g.num_nodes))
            g, ranks, _ = delete_document(g, victim, ranks, epsilon=1e-6)
        ref = pagerank_reference(g).ranks
        rel = np.abs(ranks - ref) / np.abs(ref)
        # with the degree-correction protocol the tracking is tight
        assert np.percentile(rel, 95) < 1e-3

    def test_insert_cost_independent_of_recompute_cost(self):
        """§4.7's scalability claim: insert messages are a tiny
        fraction of a from-scratch recomputation's."""
        g = broder_graph(2000, seed=74)
        report = ChaoticPagerank(g, epsilon=1e-4).run()
        _, _, prop = insert_document(g, [1, 2, 3], report.ranks, epsilon=1e-4)
        assert prop.messages < 0.01 * report.total_messages
