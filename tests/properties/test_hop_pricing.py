"""Property sweep: columnar §3.2 hop pricing equals per-update pricing.

:class:`~repro.p2p.routing.CachedDirectDelivery` and
:class:`~repro.p2p.routing.RoutedDelivery` price a whole delivery in one
:meth:`~repro.p2p.routing.DeliveryPolicy.delivery_hops_batch` call: a
sorted array of located (sender, document) pairs finds the cold
lookups, and the ring's hop table prices them.  Over seeded random
streams of calls, that must agree with one :meth:`delivery_hops` call per
row on every call's hops, on the policies' totals and on the metrics
registry (``p2p.location_cache.*``, ``p2p.chord.lookups`` and the count
and sum of ``p2p.chord.hops``).  The cached policy must also agree with
per-sender :class:`~repro.p2p.cache.LocationCache` objects fed the same
rows, which route each cold lookup with :meth:`ChordRing.route`, also
when peers join and leave the ring between calls.
"""

import random

import numpy as np
import pytest

from repro import obs
from repro.p2p import (
    CachedDirectDelivery,
    ChordRing,
    LocationCache,
    RoutedDelivery,
    document_guid,
)

SEEDS = range(20)


def stream(seed):
    """A ring and a seeded list of calls, each ``(senders, targets)``:
    runs of repeated senders and documents, and some empty calls."""
    rng = random.Random(seed)
    peers = rng.choice([1, 2, 3, 7, 20, 60])
    docs = rng.choice([5, 50, 400])
    calls = []
    for _ in range(rng.randint(1, 40)):
        n = rng.choice([0, 1, rng.randint(2, 30), rng.randint(30, 200)])
        senders = sorted(rng.randrange(peers) for _ in range(n))
        calls.append((senders, [rng.randrange(docs) for _ in range(n)]))
    return ChordRing(list(range(peers))), calls


def registry_totals(reg):
    """Counter values and histogram (count, total) of the routing
    metrics."""
    out = {}
    for name, entry in reg.snapshot().items():
        if name.startswith(("p2p.location_cache.", "p2p.chord.")):
            if entry["type"] == "histogram":
                out[name] = (entry["count"], entry["total"])
            else:
                out[name] = entry["value"]
    return out


def priced(policy, calls, per_update):
    with obs.use_registry() as reg:
        if per_update:
            hops = [
                sum(policy.delivery_hops(s, t) for s, t in zip(senders, targets))
                for senders, targets in calls
            ]
        else:
            hops = [
                policy.delivery_hops_batch(np.array(senders, dtype=np.int64), targets)
                for senders, targets in calls
            ]
    return hops, registry_totals(reg)


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_batches_match_per_update(seed):
    ring, calls = stream(seed)
    batched, single = CachedDirectDelivery(ring), CachedDirectDelivery(ring)
    assert priced(batched, calls, False) == priced(single, calls, True)
    assert batched.total_stats() == single.total_stats()


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_batches_match_location_caches(seed):
    ring, calls = stream(seed)
    policy = CachedDirectDelivery(ring)
    got, got_reg = priced(policy, calls, False)
    caches = {}
    with obs.use_registry() as reg:
        want = []
        for senders, targets in calls:
            total = 0
            for s, t in zip(senders, targets):
                cache = caches.setdefault(s, LocationCache(s, ring))
                before = cache.stats.routed_hops
                hit = t in cache
                cache.locate(t)
                total += 1 if hit else max(cache.stats.routed_hops - before, 1)
            want.append(total)
    assert got == want
    assert got_reg == registry_totals(reg)
    assert policy.total_stats() == {
        "hits": sum(c.stats.hits for c in caches.values()),
        "misses": sum(c.stats.misses for c in caches.values()),
        "routed_hops": sum(c.stats.routed_hops for c in caches.values()),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_routed_batches_match_per_update(seed):
    ring, calls = stream(seed)
    batched, single = RoutedDelivery(ring), RoutedDelivery(ring)
    assert priced(batched, calls, False) == priced(single, calls, True)
    assert (batched.total_hops, batched.deliveries) == (
        single.total_hops, single.deliveries
    )
    assert batched.deliveries == sum(len(t) for _, t in calls)


@pytest.mark.parametrize("seed", SEEDS)
def test_routed_hops_are_route_hops(seed):
    ring, calls = stream(seed)
    policy = RoutedDelivery(ring)
    for senders, targets in calls:
        want = sum(
            max(ring.route(document_guid(t), s).hops, 1)
            for s, t in zip(senders, targets)
        )
        assert policy.delivery_hops_batch(senders, targets) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_pricing_follows_membership_changes(seed):
    """Peers join and leave between calls: cold lookups take the new
    membership's routes, and located pairs stay located."""
    ring, calls = stream(seed)
    rng = random.Random(seed + 100)
    cached, routed = CachedDirectDelivery(ring), RoutedDelivery(ring)
    caches, joined = {}, []
    for senders, targets in calls:
        want_cached = want_routed = 0
        for s, t in zip(senders, targets):
            cache = caches.setdefault(s, LocationCache(s, ring))
            before = cache.stats.routed_hops
            hit = t in cache
            cache.locate(t)
            want_cached += 1 if hit else max(cache.stats.routed_hops - before, 1)
            want_routed += max(ring.route(document_guid(t), s).hops, 1)
        assert cached.delivery_hops_batch(senders, targets) == want_cached
        assert routed.delivery_hops_batch(senders, targets) == want_routed
        if joined and rng.random() < 0.4:
            ring.leave(joined.pop(rng.randrange(len(joined))))
        elif rng.random() < 0.6:
            joined.append(1000 + rng.randrange(10**6))
            if joined[-1] in ring:
                joined.pop()
            else:
                ring.join(joined[-1])
