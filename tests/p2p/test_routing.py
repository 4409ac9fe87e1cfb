"""Tests of the §3.2 delivery-cost policies."""

import random

import pytest

from repro import obs
from repro.p2p import (
    CachedDirectDelivery,
    ChordRing,
    OracleDirectDelivery,
    RoutedDelivery,
)


def cache_counters(reg):
    return {
        name: entry["value"]
        for name, entry in reg.snapshot().items()
        if name.startswith("p2p.location_cache.")
    }


@pytest.fixture()
def ring():
    return ChordRing(list(range(20)))


class TestOracle:
    def test_always_one_hop(self):
        policy = OracleDirectDelivery()
        assert policy.delivery_hops(0, 123) == 1
        assert policy.delivery_hops(5, 9) == 1


class TestCachedDirect:
    def test_first_delivery_routed_then_direct(self, ring):
        policy = CachedDirectDelivery(ring)
        first = policy.delivery_hops(0, 77)
        assert first >= 1
        for _ in range(3):
            assert policy.delivery_hops(0, 77) == 1
        stats = policy.total_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_caches_are_per_sender(self, ring):
        policy = CachedDirectDelivery(ring)
        policy.delivery_hops(0, 77)
        # a different sender has its own cold cache
        assert policy.total_stats()["misses"] == 1
        policy.delivery_hops(1, 77)
        assert policy.total_stats()["misses"] == 2

    def test_reset_clears(self, ring):
        policy = CachedDirectDelivery(ring)
        policy.delivery_hops(0, 5)
        policy.reset()
        assert policy.total_stats() == {"hits": 0, "misses": 0, "routed_hops": 0}


class TestBatchPricing:
    """One call over a run of deliveries prices it exactly as the
    per-update path does: same hops, cache stats and registry totals."""

    BATCHES = [
        (rng.randrange(6), [rng.randrange(40) for _ in range(rng.randint(0, 12))])
        for rng in [random.Random(3)]
        for _ in range(60)
    ]

    def test_batch_equals_per_update(self, ring):
        batched, single = CachedDirectDelivery(ring), CachedDirectDelivery(ring)
        with obs.use_registry() as reg_batched:
            got = [
                batched.delivery_hops_batch([s] * len(docs), docs)
                for s, docs in self.BATCHES
            ]
        with obs.use_registry() as reg_single:
            want = [
                sum(single.delivery_hops(s, d) for d in docs)
                for s, docs in self.BATCHES
            ]
        assert got == want
        assert batched.total_stats() == single.total_stats()
        assert cache_counters(reg_batched) == cache_counters(reg_single)


class TestRouted:
    def test_every_delivery_routed(self, ring):
        policy = RoutedDelivery(ring)
        h1 = policy.delivery_hops(0, 42)
        h2 = policy.delivery_hops(0, 42)
        # Freenet mode: no caching, both deliveries pay the route.
        assert h1 == h2 >= 1
        assert policy.deliveries == 2
        assert policy.total_hops == h1 + h2
        assert policy.mean_hops == pytest.approx(h1)

    def test_routed_costs_at_least_direct(self, ring):
        cached = CachedDirectDelivery(ring)
        routed = RoutedDelivery(ring)
        total_cached = sum(cached.delivery_hops(3, d) for d in range(30) for _ in range(3))
        routed.reset()
        total_routed = sum(routed.delivery_hops(3, d) for d in range(30) for _ in range(3))
        # With repeats, caching strictly wins (this is §3.2's point).
        assert total_cached < total_routed

    def test_reset(self, ring):
        policy = RoutedDelivery(ring)
        policy.delivery_hops(0, 1)
        policy.reset()
        assert policy.deliveries == 0
        assert policy.mean_hops == 0.0
