"""Tests of §3.2 location caching."""

import random
from collections import OrderedDict

import pytest

from repro.p2p import ChordRing, LocationCache
from repro.p2p.guid import document_guid


@pytest.fixture()
def ring():
    return ChordRing(list(range(16)))


class TestLocationCache:
    def test_miss_then_hit(self, ring):
        cache = LocationCache(0, ring)
        first = cache.locate(42)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        second = cache.locate(42)
        assert second == first == ring.owner(document_guid(42))
        assert cache.stats.hits == 1

    def test_routed_hops_counted_on_miss_only(self, ring):
        cache = LocationCache(0, ring)
        cache.locate(1)
        hops_after_miss = cache.stats.routed_hops
        cache.locate(1)
        assert cache.stats.routed_hops == hops_after_miss

    def test_hit_rate(self, ring):
        cache = LocationCache(0, ring)
        assert cache.stats.hit_rate == 0.0
        cache.locate(1)
        cache.locate(1)
        cache.locate(1)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_invalidate_forces_relookup(self, ring):
        cache = LocationCache(0, ring)
        cache.locate(9)
        cache.invalidate(9)
        cache.locate(9)
        assert cache.stats.misses == 2

    def test_seed_avoids_lookup(self, ring):
        cache = LocationCache(0, ring)
        cache.seed(7, 3)
        assert cache.locate(7) == 3
        assert cache.stats.misses == 0

    def test_capacity_evicts_fifo(self, ring):
        cache = LocationCache(0, ring, capacity=2)
        cache.locate(1)
        cache.locate(2)
        cache.locate(3)  # evicts doc 1
        assert len(cache) == 2
        assert 1 not in cache
        assert 2 in cache and 3 in cache

    def test_bounded_cache_keeps_eviction_order(self, ring):
        # A bounded cache evicts its oldest insertion: checked against a
        # FIFO model over a seeded stream with many evictions.
        rng = random.Random(3)
        cache = LocationCache(0, ring, capacity=5)
        model, hops = OrderedDict(), 0
        for _ in range(400):
            doc = rng.randrange(40)
            if doc not in model:
                result = ring.route(document_guid(doc), 0)
                hops += result.hops
                if len(model) == 5:
                    model.popitem(last=False)
                model[doc] = result.owner
            assert cache.locate(doc) == model[doc]
        assert list(cache._entries.items()) == list(model.items())
        assert cache.stats.routed_hops == hops
        assert cache.stats.hits + cache.stats.misses == 400

    def test_capacity_validated(self, ring):
        with pytest.raises(ValueError):
            LocationCache(0, ring, capacity=0)

    def test_storage_scales_with_distinct_targets(self, ring):
        # §3.1/§3.2 bound: one entry per distinct out-link target.
        cache = LocationCache(0, ring)
        for doc in [1, 2, 3, 1, 2, 3]:
            cache.locate(doc)
        assert len(cache) == 3


class TestCacheStatsObservability:
    """Satellite checks: §3.2 cache counters through repro.obs."""

    def test_hit_rate_zero_lookups_is_zero(self):
        from repro.p2p.cache import CacheStats

        stats = CacheStats()
        assert stats.hit_rate == 0.0

    def test_invalidations_counted(self, ring):
        cache = LocationCache(0, ring)
        cache.locate(5)
        cache.invalidate(5)
        assert cache.stats.invalidations == 1
        # Invalidating an uncached doc is a no-op, not an invalidation.
        cache.invalidate(999)
        assert cache.stats.invalidations == 1

    def test_counters_exported_through_obs(self, ring):
        from repro import obs

        with obs.use_registry() as reg:
            cache = LocationCache(0, ring)
            cache.locate(1)   # miss
            cache.locate(1)   # hit
            cache.invalidate(1)
            snapshot = reg.snapshot()
        assert snapshot["p2p.location_cache.hits"]["value"] == 1
        assert snapshot["p2p.location_cache.misses"]["value"] == 1
        assert snapshot["p2p.location_cache.invalidations"]["value"] == 1

    def test_guid_fn_overrides_key_space(self, ring):
        from repro.p2p.guid import guid_of

        def term_guid(term):
            return guid_of(str(term), namespace="term")

        cache = LocationCache(0, ring, guid_fn=term_guid)
        assert cache.locate(7) == ring.owner(term_guid(7))
