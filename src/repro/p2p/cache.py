"""IP-address caching of document locations (paper §3.2).

On DHT systems without anonymity requirements, the first pagerank
update for a document is routed through the DHT to discover which peer
stores it; the discovered address is then cached at the sender and all
later updates go direct.  Storage grows linearly with the sum of
out-links in a peer's documents — exactly the bound the paper states.

:class:`LocationCache` implements the scheme per sending peer and
keeps the hit/miss/hop statistics the routing-overhead experiments
report.  On Freenet-style systems the cache must be disabled
(anonymity), which is the ``repro.p2p.routing.RoutedDelivery`` policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs import get_registry
from repro.p2p.chord import ChordRing
from repro.p2p.guid import document_guid

__all__ = ["CacheStats", "LocationCache"]


@dataclass
class CacheStats:
    """Counters for one peer's location cache.

    Attributes
    ----------
    hits:
        Lookups answered from cache (direct send, no DHT traffic).
    misses:
        Lookups that had to route through the DHT.
    routed_hops:
        Total DHT hops paid across all misses.
    invalidations:
        Cached entries explicitly dropped (stale location evicted
        after e.g. a failed direct send).
    """

    hits: int = 0
    misses: int = 0
    routed_hops: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache; 0.0 before any
        lookup has been recorded (never raises / never NaN)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LocationCache:
    """Per-sender cache of document → peer locations.

    Parameters
    ----------
    owner_peer:
        The peer this cache belongs to (the start point of DHT routes).
    ring:
        The Chord ring used to resolve misses.
    capacity:
        Optional bound on cached entries (FIFO eviction).  ``None``
        (default) is unbounded — the paper's scheme, whose state is
        bounded by the peer's total out-links anyway.
    guid_fn:
        Key → GUID mapping used to resolve misses on the ring.
        Defaults to :func:`~repro.p2p.guid.document_guid`; the serving
        layer passes a term-namespace GUID so the same cache serves
        term-owner discovery (docs/SERVING.md).

    Hit/miss/invalidation counts are mirrored to the process metrics
    registry (``p2p.location_cache.*``, docs/OBSERVABILITY.md §3) in
    addition to the per-instance :attr:`stats`.
    """

    def __init__(
        self,
        owner_peer: int,
        ring: ChordRing,
        *,
        capacity: Optional[int] = None,
        guid_fn: Callable[[int], int] = document_guid,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.owner_peer = owner_peer
        self.ring = ring
        self.capacity = capacity
        self.guid_fn = guid_fn
        self.stats = CacheStats()
        self._entries: Dict[int, int] = {}

    def locate(self, doc: int) -> int:
        """Peer currently responsible for ``doc``.

        A cached answer costs nothing; a miss routes through the DHT
        (hops recorded in :attr:`stats`) and populates the cache.
        """
        peer = self._entries.get(doc)
        if peer is not None:
            self.stats.hits += 1
            get_registry().counter(
                "p2p.location_cache.hits", unit="lookups",
                description="location-cache lookups answered without DHT traffic",
            ).inc()
            return peer
        result = self.ring.route(self.guid_fn(doc), self.owner_peer)
        self.stats.misses += 1
        self.stats.routed_hops += result.hops
        get_registry().counter(
            "p2p.location_cache.misses", unit="lookups",
            description="location-cache lookups that routed through the DHT",
        ).inc()
        self._remember(doc, result.owner)
        return result.owner

    def invalidate(self, doc: int) -> None:
        """Drop a cached location (e.g. after a failed direct send when
        the target peer departed and its documents moved)."""
        if self._entries.pop(doc, None) is not None:
            self.stats.invalidations += 1
            get_registry().counter(
                "p2p.location_cache.invalidations", unit="entries",
                description="cached locations explicitly dropped as stale",
            ).inc()

    def seed(self, doc: int, peer: int) -> None:
        """Pre-populate an entry without a lookup (used when placement
        is known out of band, e.g. the simulator's global view)."""
        self._remember(doc, peer)

    def _remember(self, doc: int, peer: int) -> None:
        if self.capacity is not None and len(self._entries) >= self.capacity:
            # FIFO eviction: drop the oldest insertion.
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[doc] = peer

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, doc: int) -> bool:
        return doc in self._entries
