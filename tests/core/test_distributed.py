"""Tests of the chaotic distributed engine (static, no churn)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChaoticPagerank, distributed_pagerank, pagerank_reference
from repro.graphs import LinkGraph, broder_graph, cycle_graph, gnp_random_graph
from repro.p2p import DocumentPlacement


class TestConvergence:
    def test_cycle_converges_to_uniform(self):
        report = ChaoticPagerank(cycle_graph(6), epsilon=1e-8).run()
        assert report.converged
        assert np.allclose(report.ranks, 1.0)

    def test_powerlaw_converges(self, medium_powerlaw):
        report = ChaoticPagerank(medium_powerlaw, epsilon=1e-3).run()
        assert report.converged
        assert report.passes > 1

    def test_tighter_epsilon_closer_to_reference(self, medium_powerlaw):
        ref = pagerank_reference(medium_powerlaw).ranks
        errors = []
        for eps in (0.1, 1e-3, 1e-6):
            report = ChaoticPagerank(medium_powerlaw, epsilon=eps).run()
            errors.append(float(np.max(np.abs(report.ranks - ref) / ref)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-4

    def test_quality_bound_at_paper_epsilon(self, medium_powerlaw):
        # The paper's headline: eps=1e-4 gives < 1% error for nearly
        # all pages.  Assert the 99th percentile, not the max.
        ref = pagerank_reference(medium_powerlaw).ranks
        report = ChaoticPagerank(medium_powerlaw, epsilon=1e-4).run()
        rel = np.abs(report.ranks - ref) / ref
        assert np.percentile(rel, 99) < 0.01

    def test_max_passes_budget(self, medium_powerlaw):
        report = ChaoticPagerank(medium_powerlaw, epsilon=1e-7).run(max_passes=3)
        assert not report.converged
        assert report.passes == 3

    def test_empty_graph(self):
        report = ChaoticPagerank(LinkGraph.from_edges([], num_nodes=0)).run()
        assert report.converged
        assert report.ranks.size == 0

    def test_isolated_nodes_converge_immediately(self):
        g = LinkGraph.from_edges([], num_nodes=5)
        report = ChaoticPagerank(g, epsilon=1e-3).run()
        assert report.converged
        # all nodes drop to the floor in one pass, then stop
        assert np.allclose(report.ranks, 0.15)


class TestMessageAccounting:
    def test_single_peer_sends_no_messages(self, small_powerlaw):
        assignment = np.zeros(small_powerlaw.num_nodes, dtype=np.int64)
        report = ChaoticPagerank(small_powerlaw, assignment, epsilon=1e-4).run()
        assert report.total_messages == 0
        assert report.converged

    def test_default_assignment_counts_every_edge(self):
        g = cycle_graph(4)
        report = ChaoticPagerank(g, epsilon=1e-8).run()
        # Cycle from uniform init: pass 1 changes nothing => converged
        # on the first pass with zero sends.
        assert report.passes == 1
        assert report.total_messages == 0

    def test_messages_decrease_over_passes(self, medium_powerlaw):
        report = ChaoticPagerank(medium_powerlaw, epsilon=1e-5).run()
        series = report.messages_by_pass()
        assert series[-1] == 0  # converged pass sends nothing
        # Late passes send far less than early passes.
        assert series[: len(series) // 3].mean() > series[-len(series) // 3 :].mean()

    def test_tighter_epsilon_costs_more_messages(self, medium_powerlaw):
        pl = DocumentPlacement.random(medium_powerlaw.num_nodes, 50, seed=0)
        costs = []
        for eps in (0.1, 1e-3, 1e-5):
            report = ChaoticPagerank(
                medium_powerlaw, pl.assignment, epsilon=eps
            ).run()
            costs.append(report.total_messages)
        assert costs[0] < costs[1] < costs[2]

    def test_intra_peer_links_are_free(self):
        g = cycle_graph(6)
        # All nodes on one of two peers, split 3/3: only the two
        # boundary edges are remote.
        assignment = np.array([0, 0, 0, 1, 1, 1])
        engine = ChaoticPagerank(g, assignment, epsilon=1e-8)
        assert int(engine._cross_edge.sum()) == 2

    def test_messages_per_document_property(self, small_powerlaw):
        report = ChaoticPagerank(small_powerlaw, epsilon=1e-3).run()
        assert report.messages_per_document == pytest.approx(
            report.total_messages / small_powerlaw.num_nodes
        )


class TestHistory:
    def test_history_recorded(self, small_powerlaw):
        report = ChaoticPagerank(small_powerlaw, epsilon=1e-3).run()
        assert len(report.history) == report.passes
        assert report.history[0].pass_index == 0
        assert sum(p.messages for p in report.history) == report.total_messages

    def test_history_disabled(self, small_powerlaw):
        report = ChaoticPagerank(small_powerlaw, epsilon=1e-3).run(keep_history=False)
        assert report.history == ()
        assert report.total_messages > 0

    def test_max_change_series_ends_below_epsilon(self, small_powerlaw):
        eps = 1e-3
        report = ChaoticPagerank(small_powerlaw, epsilon=eps).run()
        assert report.max_change_by_pass()[-1] <= eps


class TestWarmStart:
    def test_warm_start_from_fixed_point_is_cheap(self, medium_powerlaw):
        # Restarting publishes the sub-epsilon residuals the chaotic
        # run withheld, so a handful of passes may still occur — but
        # far fewer than a cold start.
        first = ChaoticPagerank(medium_powerlaw, epsilon=1e-5).run()
        engine = ChaoticPagerank(medium_powerlaw, epsilon=1e-5)
        second = engine.run(initial_ranks=first.ranks)
        assert second.converged
        assert second.passes < first.passes / 3
        assert second.total_messages < first.total_messages / 10

    def test_warm_start_validation(self, small_powerlaw):
        engine = ChaoticPagerank(small_powerlaw)
        with pytest.raises(ValueError):
            engine.run(initial_ranks=np.ones(3))
        with pytest.raises(ValueError):
            engine.run(initial_ranks=np.zeros(small_powerlaw.num_nodes))


class TestValidation:
    def test_bad_epsilon(self, small_powerlaw):
        with pytest.raises(ValueError):
            ChaoticPagerank(small_powerlaw, epsilon=0.0)
        with pytest.raises(ValueError):
            ChaoticPagerank(small_powerlaw, epsilon=1.0)

    def test_bad_damping(self, small_powerlaw):
        with pytest.raises(ValueError):
            ChaoticPagerank(small_powerlaw, damping=0.0)

    def test_bad_assignment_shape(self, small_powerlaw):
        with pytest.raises(ValueError):
            ChaoticPagerank(small_powerlaw, np.zeros(3, dtype=np.int64))

    def test_negative_peer_rejected(self, small_powerlaw):
        bad = np.zeros(small_powerlaw.num_nodes, dtype=np.int64)
        bad[0] = -1
        with pytest.raises(ValueError):
            ChaoticPagerank(small_powerlaw, bad)

    def test_num_peers_too_small(self, small_powerlaw):
        assignment = np.full(small_powerlaw.num_nodes, 5, dtype=np.int64)
        with pytest.raises(ValueError):
            ChaoticPagerank(small_powerlaw, assignment, num_peers=3)

    def test_bad_max_passes(self, small_powerlaw):
        with pytest.raises(ValueError):
            ChaoticPagerank(small_powerlaw).run(max_passes=0)


class TestConvenienceWrapper:
    def test_distributed_pagerank_equivalent(self, small_powerlaw):
        a = distributed_pagerank(small_powerlaw, epsilon=1e-3)
        b = ChaoticPagerank(small_powerlaw, epsilon=1e-3).run()
        assert np.array_equal(a.ranks, b.ranks)
        assert a.total_messages == b.total_messages


class TestPropertyBased:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_any_gnp_graph_converges_near_reference(self, seed):
        g = gnp_random_graph(40, 0.15, seed=seed)
        report = ChaoticPagerank(g, epsilon=1e-7).run()
        assert report.converged
        ref = pagerank_reference(g).ranks
        assert np.allclose(report.ranks, ref, rtol=1e-4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_ranks_bounded_below_by_floor(self, seed):
        g = broder_graph(60, seed=seed)
        report = ChaoticPagerank(g, epsilon=1e-4, damping=0.85).run()
        assert np.all(report.ranks >= 0.15 - 1e-12)


class TestScheduledPagerank:
    def test_matches_direct_quality(self, medium_powerlaw):
        from repro.core import scheduled_pagerank

        ref = pagerank_reference(medium_powerlaw).ranks
        report = scheduled_pagerank(
            medium_powerlaw, schedule=(1e-2, 1e-5)
        )
        assert report.converged
        assert report.epsilon == 1e-5
        rel = np.abs(report.ranks - ref) / ref
        assert np.percentile(rel, 99) < 1e-3

    def test_saves_messages_vs_direct(self, medium_powerlaw):
        from repro.core import scheduled_pagerank

        direct = ChaoticPagerank(medium_powerlaw, epsilon=1e-5).run(
            keep_history=False
        )
        staged = scheduled_pagerank(medium_powerlaw, schedule=(1e-2, 1e-5))
        assert staged.total_messages < direct.total_messages

    def test_history_indices_continuous(self, small_powerlaw):
        from repro.core import scheduled_pagerank

        report = scheduled_pagerank(small_powerlaw, schedule=(1e-2, 1e-4))
        indices = [p.pass_index for p in report.history]
        assert indices == list(range(report.passes))
        assert sum(p.messages for p in report.history) == report.total_messages

    def test_single_stage_equals_plain_run(self, small_powerlaw):
        from repro.core import scheduled_pagerank

        staged = scheduled_pagerank(small_powerlaw, schedule=(1e-3,))
        plain = ChaoticPagerank(small_powerlaw, epsilon=1e-3).run()
        assert staged.passes == plain.passes
        assert staged.total_messages == plain.total_messages
        assert np.array_equal(staged.ranks, plain.ranks)

    def test_budget_exhaustion_reported(self, medium_powerlaw):
        from repro.core import scheduled_pagerank

        report = scheduled_pagerank(
            medium_powerlaw, schedule=(1e-2, 1e-6), max_passes=5
        )
        assert not report.converged

    def test_schedule_validation(self, small_powerlaw):
        from repro.core import scheduled_pagerank

        with pytest.raises(ValueError):
            scheduled_pagerank(small_powerlaw, schedule=())
        with pytest.raises(ValueError):
            scheduled_pagerank(small_powerlaw, schedule=(1e-4, 1e-2))
        with pytest.raises(ValueError):
            scheduled_pagerank(small_powerlaw, schedule=(1e-2, 1e-2))
