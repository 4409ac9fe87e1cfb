"""Asynchronous event schedules on the concurrent runtime.

Quiescence, schedule independence, budgets and the latency and
continuous-time churn models, checked on
:class:`~repro.runtime.AsyncPeerRuntime` in its seeded virtual-clock
mode.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.core import pagerank_reference
from repro.graphs import broder_graph, cycle_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import (
    AsyncPeerRuntime,
    ExponentialLatency,
    FixedLatency,
    OnOffSchedule,
    UniformLatency,
)


def build(num_docs=80, num_peers=5, seed=0):
    g = broder_graph(num_docs, seed=seed)
    pl = DocumentPlacement.random(num_docs, num_peers, seed=seed + 1)
    return g, P2PNetwork(num_peers, pl, build_ring=False)


def run(g, net, *, max_rounds=1_000_000, **kwargs):
    runtime = AsyncPeerRuntime(g, net, **kwargs)
    return asyncio.run(runtime.run(max_rounds=max_rounds))


class TestQuiescence:
    def test_quiesces_and_approximates_reference(self):
        g, net = build()
        report = run(g, net, epsilon=1e-3, seed=1)
        assert report.quiesced
        ref = pagerank_reference(g).ranks
        rel = np.abs(report.ranks - ref) / ref
        # chaotic iteration with eps-gated sends: bounded residual
        assert np.percentile(rel, 95) < 0.05

    def test_interleaving_independence(self):
        """Chazan–Miranker: any delivery order converges to (nearly)
        the same point.  Different latency seeds and receiver batching
        windows must agree closely."""
        g, net = build(seed=4)
        ranks = []
        for seed, window in ((1, 0.0), (2, 0.0), (3, 0.5)):
            report = run(
                g, net, epsilon=1e-4, seed=seed,
                latency=ExponentialLatency(1.0), batch_window=window,
            )
            assert report.quiesced
            ranks.append(report.ranks)
        for other in ranks[1:]:
            rel = np.abs(ranks[0] - other) / ranks[0]
            assert np.percentile(rel, 95) < 0.02

    def test_deterministic_given_seed(self):
        g, net = build(seed=5)
        a = run(g, net, epsilon=1e-3, seed=42, batch_window=0.5)
        g2, net2 = build(seed=5)
        b = run(g2, net2, epsilon=1e-3, seed=42, batch_window=0.5)
        assert np.array_equal(a.ranks, b.ranks)
        assert a.rounds == b.rounds
        assert a.recomputes == b.recomputes

    def test_event_budget_respected(self):
        g, net = build()
        report = run(g, net, epsilon=1e-6, seed=0, max_rounds=10)
        assert not report.quiesced
        assert report.rounds == 10

    def test_cycle_from_uniform_is_silent(self):
        g = cycle_graph(6)
        pl = DocumentPlacement.random(6, 2, seed=0)
        net = P2PNetwork(2, pl, build_ring=False)
        report = run(g, net, epsilon=1e-6, seed=0)
        # uniform init is the fixed point: first computes change nothing
        assert report.quiesced
        assert report.messages == 0

    def test_sim_time_advances(self):
        g, net = build(seed=6)
        report = run(g, net, epsilon=1e-3, seed=0, latency=FixedLatency(2.0))
        assert report.quiesced
        assert report.clock_time > 0


class TestLatencyModels:
    def test_fixed(self):
        rng = np.random.default_rng(0)
        m = FixedLatency(1.5)
        assert m(rng, 0, 1) == 1.5

    def test_uniform_bounds(self):
        rng = np.random.default_rng(0)
        m = UniformLatency(0.5, 1.5)
        draws = [m(rng, 0, 1) for _ in range(200)]
        assert min(draws) >= 0.5
        assert max(draws) <= 1.5

    def test_exponential_mean(self):
        rng = np.random.default_rng(0)
        m = ExponentialLatency(2.0)
        draws = [m(rng, 0, 1) for _ in range(5000)]
        assert np.mean(draws) == pytest.approx(2.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialLatency(0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_fixed_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            FixedLatency(bad)

    @pytest.mark.parametrize(
        "low, high",
        [(0.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (0.5, math.inf),
         (math.nan, 1.0), (0.5, math.nan)],
    )
    def test_uniform_rejects_nonpositive_and_nonfinite(self, low, high):
        with pytest.raises(ValueError):
            UniformLatency(low, high)


class TestValidation:
    def test_requires_placement(self):
        g = broder_graph(30, seed=0)
        net = P2PNetwork(3, build_ring=False)
        with pytest.raises(ValueError, match="placement"):
            AsyncPeerRuntime(g, net)

    def test_bad_max_events(self):
        g, net = build()
        with pytest.raises(ValueError):
            asyncio.run(AsyncPeerRuntime(g, net).run(max_rounds=0))


class TestContinuousChurn:
    def test_onoff_schedule_structure(self):
        sched = OnOffSchedule(5, mean_up=10.0, mean_down=5.0, seed=0)
        assert sched.stationary_availability == pytest.approx(10 / 15)
        # next_up is monotone and idempotent when up
        for peer in range(5):
            for t in (0.0, 3.7, 42.0):
                up_at = sched.next_up(peer, t)
                assert up_at >= t
                assert sched.next_up(peer, up_at) == up_at
                assert sched.is_up(peer, up_at)

    def test_onoff_schedule_has_downtime(self):
        sched = OnOffSchedule(20, mean_up=5.0, mean_down=5.0, seed=1)
        down_seen = any(
            not sched.is_up(p, t)
            for p in range(20)
            for t in np.linspace(0, 100, 50)
        )
        assert down_seen

    def test_onoff_validation(self):
        with pytest.raises(ValueError):
            OnOffSchedule(0)
        with pytest.raises(ValueError):
            OnOffSchedule(3, mean_up=0.0)
        sched = OnOffSchedule(3, seed=0)
        with pytest.raises(IndexError):
            sched.next_up(9, 0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_onoff_rejects_nonfinite_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            OnOffSchedule(3, horizon=horizon, seed=0)

    def test_async_with_churn_converges(self):
        g, net = build(num_docs=120, num_peers=6, seed=9)
        sched = OnOffSchedule(6, mean_up=10.0, mean_down=5.0, seed=10)
        report = run(g, net, epsilon=1e-4, availability=sched, seed=11)
        assert report.quiesced
        assert report.deferred_deliveries > 0
        ref = pagerank_reference(g).ranks
        rel = np.abs(report.ranks - ref) / ref
        assert np.percentile(rel, 99) < 5e-3

    def test_churn_extends_sim_time_not_traffic(self):
        g, net = build(num_docs=100, num_peers=5, seed=12)
        plain = run(g, net, epsilon=1e-3, seed=13)
        g2, net2 = build(num_docs=100, num_peers=5, seed=12)
        churned = run(
            g2, net2, epsilon=1e-3, seed=13,
            availability=OnOffSchedule(5, mean_up=5.0, mean_down=10.0, seed=14),
        )
        assert churned.quiesced
        # downtime delays delivery but does not multiply messages
        assert churned.messages < 2 * plain.messages
        assert churned.clock_time > plain.clock_time

    def test_peer_count_mismatch_rejected(self):
        g, net = build(num_docs=50, num_peers=5, seed=15)
        with pytest.raises(ValueError, match="mismatch"):
            AsyncPeerRuntime(g, net, availability=OnOffSchedule(3, seed=0))
