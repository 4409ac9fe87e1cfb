"""Tests of personalized / topic-sensitive pagerank: the teleport
preference vector as input data of both solvers."""

import numpy as np
import pytest

from repro.core import ChaoticPagerank, pagerank_reference, topic_vector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import broder_graph, chain_graph
from repro.p2p import DocumentPlacement, FixedFractionChurn


@pytest.fixture(scope="module")
def graph():
    return broder_graph(800, seed=9)


class TestTopicVector:
    def test_full_weight_on_topic(self):
        v = topic_vector(10, [1, 3])
        assert v.sum() == pytest.approx(1.0)
        assert v[1] == v[3] == pytest.approx(0.5)
        assert v[0] == 0.0

    def test_blended_weight(self):
        v = topic_vector(10, [0], weight=0.5)
        assert v.sum() == pytest.approx(1.0)
        assert v[0] == pytest.approx(0.5 + 0.05)
        assert v[5] == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            topic_vector(10, [])
        with pytest.raises(ValueError):
            topic_vector(10, [100])
        with pytest.raises(ValueError):
            topic_vector(10, [0], weight=1.5)
        with pytest.raises(ValueError):
            topic_vector(0, [0])

    @pytest.mark.parametrize("ids", [[1, 1], [1, 1, 2], [3, 2, 3, 2, 2]])
    def test_duplicate_ids_keep_unit_mass(self, ids):
        v = topic_vector(10, ids)
        assert v.sum() == pytest.approx(1.0)
        assert np.array_equal(v, topic_vector(10, sorted(set(ids))))
        blended = topic_vector(10, ids, weight=0.3)
        assert np.array_equal(blended, topic_vector(10, set(ids), weight=0.3))


class TestPersonalizedReference:
    def test_uniform_preference_matches_global(self, graph):
        uniform = np.full(graph.num_nodes, 1.0 / graph.num_nodes)
        personalized = pagerank_reference(graph, preference=uniform)
        plain = pagerank_reference(graph)
        assert np.allclose(personalized.ranks, plain.ranks, rtol=1e-8)

    def test_topic_bias_raises_seed_ranks(self, graph):
        seeds = [0, 1, 2]
        v = topic_vector(graph.num_nodes, seeds)
        biased = pagerank_reference(graph, preference=v)
        plain = pagerank_reference(graph)
        for doc in seeds:
            assert biased.ranks[doc] > plain.ranks[doc]

    def test_teleport_mass_conserved_shape(self, graph):
        v = topic_vector(graph.num_nodes, [5])
        result = pagerank_reference(graph, preference=v)
        assert result.converged
        assert np.all(result.ranks >= 0)

    def test_unnormalized_preference_is_normalized(self, graph):
        v = np.zeros(graph.num_nodes)
        v[:3] = 7.0  # not summing to 1
        result = pagerank_reference(graph, preference=v)
        assert result.converged
        unit = pagerank_reference(graph, preference=v / v.sum())
        assert np.allclose(result.ranks, unit.ranks, rtol=1e-12)

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            pagerank_reference(graph, preference=np.ones(3))
        with pytest.raises(ValueError):
            pagerank_reference(graph, preference=-np.ones(graph.num_nodes))
        with pytest.raises(ValueError):
            pagerank_reference(graph, preference=np.zeros(graph.num_nodes))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_preference_rejected(self, graph, bad):
        v = topic_vector(graph.num_nodes, [0])
        v[7] = bad
        with pytest.raises(ValueError, match="finite"):
            pagerank_reference(graph, preference=v)

    def test_dangling_redistribution_stays_uniform(self):
        # A chain ends in a dangling document; with "redistribute" its
        # mass is spread evenly whatever the preference vector says.
        g = chain_graph(5)
        v = topic_vector(5, [0])
        ranks = pagerank_reference(g, preference=v, dangling="redistribute").ranks
        d = 0.85
        dangling_share = d * ranks[4] / 5
        expected_head = (1 - d) * 5 * v[0] + dangling_share
        assert ranks[0] == pytest.approx(expected_head, rel=1e-9)


class TestPersonalizedChaotic:
    def test_matches_reference(self, graph):
        v = topic_vector(graph.num_nodes, [0, 10, 20], weight=0.8)
        ref = pagerank_reference(graph, preference=v).ranks
        pl = DocumentPlacement.random(graph.num_nodes, 20, seed=0)
        report = ChaoticPagerank(
            graph, pl.assignment, epsilon=1e-6, preference=v
        ).run()
        assert report.converged
        rel = np.abs(report.ranks - ref) / np.maximum(ref, 1e-12)
        assert np.percentile(rel, 99) < 1e-3

    def test_message_cost_comparable_to_global(self, graph):
        """Topic sensitivity is free in communication: teleport terms
        are local state."""
        pl = DocumentPlacement.random(graph.num_nodes, 20, seed=1)
        global_run = ChaoticPagerank(
            graph, pl.assignment, num_peers=20, epsilon=1e-4
        ).run()
        v = topic_vector(graph.num_nodes, [0, 1], weight=0.5)
        topic_run = ChaoticPagerank(
            graph, pl.assignment, epsilon=1e-4, preference=v
        ).run()
        assert topic_run.total_messages < 3 * global_run.total_messages

    def test_default_assignment(self, graph):
        v = topic_vector(graph.num_nodes, [0])
        report = ChaoticPagerank(graph, epsilon=1e-3, preference=v).run()
        assert report.converged

    def test_validation(self, graph):
        v = topic_vector(graph.num_nodes, [0])
        with pytest.raises(ValueError):
            ChaoticPagerank(graph, epsilon=0.0, preference=v)
        with pytest.raises(ValueError):
            ChaoticPagerank(graph, np.zeros(3, dtype=np.int64), preference=v)
        with pytest.raises(ValueError):
            ChaoticPagerank(graph, preference=v).run(max_passes=0)
        with pytest.raises(ValueError):
            ChaoticPagerank(graph, preference=np.ones(3))

    def test_negative_peer_ids_rejected(self, graph):
        v = topic_vector(graph.num_nodes, [0])
        with pytest.raises(ValueError, match="non-negative"):
            ChaoticPagerank(
                graph, -np.ones(graph.num_nodes, dtype=np.int64), preference=v
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_preference_rejected(self, graph, bad):
        v = topic_vector(graph.num_nodes, [0])
        v[3] = bad
        with pytest.raises(ValueError, match="finite"):
            ChaoticPagerank(graph, preference=v)

    def test_churn_and_loss_reach_the_personalized_fixed_point(self, graph):
        v = topic_vector(graph.num_nodes, [0, 10, 20], weight=0.8)
        ref = pagerank_reference(graph, preference=v).ranks
        pl = DocumentPlacement.random(graph.num_nodes, 20, seed=0)
        engine = ChaoticPagerank(
            graph, pl.assignment, num_peers=20, epsilon=1e-6, preference=v
        )
        report = engine.run(
            availability=FixedFractionChurn(20, 0.75, seed=4),
            fault_plan=FaultPlan(FaultSpec(drop_rate=0.2), seed=5),
        )
        assert report.converged
        rel = np.abs(report.ranks - ref) / ref
        assert np.percentile(rel, 99) < 1e-3

    @pytest.mark.parametrize("faulted", [False, True], ids=["static", "churn-loss"])
    def test_rank_falling_to_zero_is_published(self, faulted):
        # 650 of these 800 ranks are exactly 0: a document whose rank
        # drops from 1 to 0 must announce the drop, or its
        # out-neighbours keep pulling the initial 1 forever.
        g = broder_graph(800, seed=9)
        v = topic_vector(800, [0])
        ref = pagerank_reference(g, preference=v).ranks
        assert int((ref == 0).sum()) == 650
        run = {}
        if faulted:
            run = dict(
                availability=FixedFractionChurn(800, 0.75, seed=4),
                fault_plan=FaultPlan(FaultSpec(drop_rate=0.2), seed=5),
            )
        report = ChaoticPagerank(g, epsilon=1e-6, preference=v).run(**run)
        assert report.converged
        assert float(np.max(np.abs(report.ranks - ref))) < 1e-3
