"""Message-delivery cost policies (paper §3.2).

The paper contrasts two regimes for pagerank update delivery:

* **cached direct** (DHT systems, no anonymity): the first update for
  a document routes through the DHT (O(log P) hops) to learn its
  location, which is cached; every later update travels one direct hop.
* **routed every time** (Freenet-style anonymity): addresses may not
  be cached, so *every* update pays the full routed path through
  intermediate nodes.

A delivery policy turns "peer ``s`` sends an update for document ``t``"
into a hop count, so the traffic experiments can price both regimes
from the same message stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.p2p.cache import LocationCache
from repro.p2p.chord import ChordRing
from repro.p2p.guid import document_guid

__all__ = [
    "DeliveryPolicy",
    "CachedDirectDelivery",
    "RoutedDelivery",
    "OracleDirectDelivery",
]


class DeliveryPolicy(ABC):
    """Prices the network hops of one update delivery."""

    @abstractmethod
    def delivery_hops(self, sender_peer: int, target_doc: int) -> int:
        """Hops consumed delivering one update from ``sender_peer`` to
        the peer storing ``target_doc``."""

    def delivery_hops_batch(
        self, sender_peer: int, target_docs: Sequence[int]
    ) -> int:
        """Total hops for one sender's batch of deliveries.

        Every engine prices batches through this one entry point, so
        instrumentation that wraps it by name sees every policy;
        policies with a cheaper exact answer override
        :meth:`_batch_hops`.
        """
        return self._batch_hops(sender_peer, target_docs)

    def _batch_hops(self, sender_peer: int, target_docs: Sequence[int]) -> int:
        """Price each delivery individually in order, so stateful
        policies (location caches, per-route counters) observe the
        exact same sequence as repeated :meth:`delivery_hops` calls."""
        total = 0
        for doc in target_docs:
            total += self.delivery_hops(sender_peer, doc)
        return total

    def reset(self) -> None:
        """Clear any per-run state (caches, counters)."""


class OracleDirectDelivery(DeliveryPolicy):
    """Every delivery is one direct hop (the §4.2 simulation's
    idealisation and the fast engines' implicit model)."""

    def delivery_hops(self, sender_peer: int, target_doc: int) -> int:
        return 1

    def _batch_hops(self, sender_peer: int, target_docs: Sequence[int]) -> int:
        return len(target_docs)


class CachedDirectDelivery(DeliveryPolicy):
    """§3.2's scheme: first update per (sender, document) routes
    through the DHT, later ones go direct.

    Parameters
    ----------
    ring:
        The Chord ring resolving cold lookups.
    """

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        self._caches: Dict[int, LocationCache] = {}

    def cache_of(self, peer: int) -> LocationCache:
        """The sending peer's location cache (created lazily)."""
        cache = self._caches.get(peer)
        if cache is None:
            cache = self._caches[peer] = LocationCache(peer, self.ring)
        return cache

    def delivery_hops(self, sender_peer: int, target_doc: int) -> int:
        cache = self.cache_of(sender_peer)
        if target_doc in cache:
            cache.locate(target_doc)  # records the hit
            return 1
        before = cache.stats.routed_hops
        cache.locate(target_doc)
        lookup_hops = cache.stats.routed_hops - before
        # The discovery route carries the update itself (piggybacked),
        # so a miss costs the routed path; at minimum one hop.
        return max(lookup_hops, 1)

    def _batch_hops(self, sender_peer: int, target_docs: Sequence[int]) -> int:
        """:meth:`delivery_hops` for each document in order, as one pass
        over the sender's cache (:meth:`LocationCache.lookup_hops`)."""
        hops = self.cache_of(sender_peer).lookup_hops(target_docs)
        return sum(h if h > 1 else 1 for h in hops)

    def reset(self) -> None:
        self._caches.clear()

    def total_stats(self) -> Dict[str, int]:
        """Aggregated hit/miss/hop counters across all sender caches."""
        hits = sum(c.stats.hits for c in self._caches.values())
        misses = sum(c.stats.misses for c in self._caches.values())
        hops = sum(c.stats.routed_hops for c in self._caches.values())
        return {"hits": hits, "misses": misses, "routed_hops": hops}


class RoutedDelivery(DeliveryPolicy):
    """Freenet-style anonymity-preserving delivery: every update is
    individually routed through intermediate nodes; no caching."""

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        self.total_hops = 0
        self.deliveries = 0

    def delivery_hops(self, sender_peer: int, target_doc: int) -> int:
        hops = max(self.ring.route(document_guid(target_doc), sender_peer).hops, 1)
        self.total_hops += hops
        self.deliveries += 1
        return hops

    def reset(self) -> None:
        self.total_hops = 0
        self.deliveries = 0

    @property
    def mean_hops(self) -> float:
        """Average routed path length per delivery."""
        return self.total_hops / self.deliveries if self.deliveries else 0.0
