"""Interleaving-explorer tests: perturbations are legal permutations,
clean scenarios are schedule-independent (bitwise), and an
order-sensitive system is caught as SAN002."""

import asyncio

import pytest

from repro.graphs import broder_graph
from repro.obs import MetricsRegistry
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import AsyncPeerRuntime
from repro.sanitize.explorer import (
    durable_digest,
    explore_schedules,
    perturbation,
)


class TestPerturbation:
    def test_bijective_over_a_large_range(self):
        key = perturbation(0)
        keys = [key(seq) for seq in range(10_000)]
        assert len(set(keys)) == len(keys)

    def test_seeds_select_distinct_permutations(self):
        a = [perturbation(0)(s) for s in range(100)]
        b = [perturbation(1)(s) for s in range(100)]
        assert sorted(range(100), key=a.__getitem__) != sorted(
            range(100), key=b.__getitem__
        )

    def test_deterministic_per_seed(self):
        assert [perturbation(7)(s) for s in range(50)] == [
            perturbation(7)(s) for s in range(50)
        ]


class _StubPeer:
    def __init__(self, pid):
        self.peer_id = pid
        self.rank = {}
        self.published = {}
        self.remote_values = {}
        self._remote_versions = {}
        self._publish_version = {}


class _StubNode:
    def __init__(self, peer):
        self.peer = peer


class _OrderSensitiveRuntime:
    """Last-writer-wins over two same-time envelopes: the durable
    state is exactly the tie-break order — the bug SAN002 exists for."""

    def __init__(self, tiebreak):
        self._key = tiebreak if tiebreak is not None else (lambda seq: seq)
        self.nodes = [_StubNode(_StubPeer(0))]

    async def run(self, max_rounds=0):
        order = sorted([0, 1], key=self._key)
        self.nodes[0].peer.published[0] = float(order[-1])


class TestDurableDigest:
    def test_digest_reflects_tracked_state(self):
        a = _OrderSensitiveRuntime(None)
        b = _OrderSensitiveRuntime(None)
        asyncio.run(a.run())
        asyncio.run(b.run())
        assert durable_digest(a) == durable_digest(b)
        b.nodes[0].peer.rank[5] = 0.25
        assert durable_digest(a) != durable_digest(b)

    def test_float_rendering_is_bitwise(self):
        a = _OrderSensitiveRuntime(None)
        b = _OrderSensitiveRuntime(None)
        a.nodes[0].peer.rank[0] = 0.1 + 0.2
        b.nodes[0].peer.rank[0] = 0.3
        assert durable_digest(a) != durable_digest(b)


class TestExploreSchedules:
    def test_rejects_non_positive_schedule_count(self):
        with pytest.raises(ValueError, match="schedules"):
            explore_schedules(
                _OrderSensitiveRuntime, schedules=0,
                registry=MetricsRegistry(),
            )

    def test_order_sensitive_system_diverges(self):
        # Seeds 0..3 include at least one permutation that swaps the
        # two same-time envelopes; the expectation is computed from
        # the same perturbation the explorer uses.
        schedules = 4
        expected = sum(
            1 for s in range(schedules)
            if perturbation(s)(0) > perturbation(s)(1)
        )
        assert expected > 0
        reg = MetricsRegistry()
        report = explore_schedules(
            _OrderSensitiveRuntime, schedules=schedules, seed=0,
            registry=reg,
        )
        assert not report.deterministic
        assert len(report.findings) == expected
        assert all(f.rule == "SAN002" for f in report.findings)
        snap = reg.snapshot()
        assert snap["sanitizer.schedules"]["value"] == schedules
        assert snap["sanitizer.determinism_violations"]["value"] == expected

    def test_compare_digests_false_suppresses_san002(self):
        # Order-coupled scenarios (sequential fault-RNG streams) still
        # run every schedule for race detection, but emit no SAN002.
        reg = MetricsRegistry()
        report = explore_schedules(
            _OrderSensitiveRuntime, schedules=4, seed=0,
            compare_digests=False, registry=reg,
        )
        assert report.findings == []
        assert not report.digests_compared
        assert len(report.schedule_digests) == 4
        snap = reg.snapshot()
        assert snap["sanitizer.schedules"]["value"] == 4
        assert snap["sanitizer.determinism_violations"]["value"] == 0

    def test_real_runtime_is_deterministic_across_three_schedules(self):
        def factory(tiebreak):
            graph = broder_graph(80, seed=0)
            placement = DocumentPlacement.random(80, 4, seed=1)
            network = P2PNetwork(4, placement, build_ring=False)
            return AsyncPeerRuntime(
                graph, network, epsilon=1e-3, seed=4, tiebreak=tiebreak
            )

        report = explore_schedules(
            factory, schedules=3, seed=0, registry=MetricsRegistry()
        )
        assert report.deterministic
        assert report.schedule_digests == [report.baseline_digest] * 3
