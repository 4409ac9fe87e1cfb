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
from typing import Dict

import numpy as np
from numpy.typing import ArrayLike

from repro.obs import get_registry
from repro.p2p.chord import ChordRing

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

    def delivery_hops_batch(self, senders: ArrayLike, targets: ArrayLike) -> int:
        """Total hops of a run of deliveries, row ``i`` from peer
        ``senders[i]`` to the peer storing document ``targets[i]``,
        priced in row order.

        Every engine prices deliveries through this one entry point, so
        instrumentation that wraps it by name sees every policy;
        policies with a cheaper exact answer override
        :meth:`_batch_hops`.
        """
        return self._batch_hops(
            np.asarray(senders, dtype=np.int64), np.asarray(targets, dtype=np.int64)
        )

    def _batch_hops(self, senders: np.ndarray, targets: np.ndarray) -> int:
        """Price each delivery individually in row order, so stateful
        policies (random restarts, per-route counters) observe the exact
        same sequence as repeated :meth:`delivery_hops` calls."""
        return sum(
            self.delivery_hops(s, t) for s, t in zip(senders.tolist(), targets.tolist())
        )

    def reset(self) -> None:
        """Clear any per-run state (caches, counters)."""


class OracleDirectDelivery(DeliveryPolicy):
    """Every delivery is one direct hop (the §4.2 simulation's
    idealisation and the fast engines' implicit model)."""

    def delivery_hops(self, sender_peer: int, target_doc: int) -> int:
        return 1

    def _batch_hops(self, senders: np.ndarray, targets: np.ndarray) -> int:
        return len(targets)


class CachedDirectDelivery(DeliveryPolicy):
    """§3.2's scheme: first update per (sender, document) routes
    through the DHT, later ones go direct.

    The senders' location caches are one sorted array of located
    (sender, document) pairs, ``sender << 32 | document`` (document ids
    below ``2**32``), and a cold lookup's hops come from the ring's hop
    table.  Hit, miss and hop counts match per-sender
    :class:`~repro.p2p.cache.LocationCache` objects fed the same stream,
    in the metrics registry too (``p2p.location_cache.*``).

    Parameters
    ----------
    ring:
        The Chord ring resolving cold lookups.
    """

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        self.reset()

    def delivery_hops(self, sender_peer: int, target_doc: int) -> int:
        return self._batch_hops(np.array([sender_peer]), np.array([target_doc]))

    def _batch_hops(self, senders: np.ndarray, targets: np.ndarray) -> int:
        """A pair's first row misses if no earlier call located it; every
        other row hits.  A miss costs its routed path (the discovery
        route carries the update itself), at least one hop; a hit one
        direct hop."""
        keys = senders << 32 | targets
        at = np.searchsorted(self._located, keys)
        cold = np.flatnonzero(self._located[at] != keys)
        hops = cold[:0]
        if cold.size:
            pairs, first = np.unique(keys[cold], return_index=True)
            cold = cold[first]
            self._located = np.insert(self._located, at[cold], pairs)
            cold.sort()
            hops = self.ring.document_hops(senders[cold], targets[cold])
        hits, misses = len(targets) - cold.size, cold.size
        self.hits += hits
        self.misses += misses
        self.routed_hops += int(hops.sum())
        reg = get_registry()
        if hits:
            reg.counter(
                "p2p.location_cache.hits", unit="lookups",
                description="location-cache lookups answered without DHT traffic",
            ).inc(hits)
        if misses:
            reg.counter(
                "p2p.location_cache.misses", unit="lookups",
                description="location-cache lookups that routed through the DHT",
            ).inc(misses)
        return hits + int(np.maximum(hops, 1).sum())

    def reset(self) -> None:
        # Located pairs, sorted over a sentinel past every pair so
        # searchsorted never runs off the end.
        self._located = np.array([np.iinfo(np.int64).max])
        self.hits = self.misses = self.routed_hops = 0

    def total_stats(self) -> Dict[str, int]:
        """Hit/miss/hop counters across all senders."""
        return {"hits": self.hits, "misses": self.misses, "routed_hops": self.routed_hops}


class RoutedDelivery(DeliveryPolicy):
    """Freenet-style anonymity-preserving delivery: every update is
    individually routed through intermediate nodes; no caching."""

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        self.total_hops = 0
        self.deliveries = 0

    def delivery_hops(self, sender_peer: int, target_doc: int) -> int:
        return self._batch_hops(np.array([sender_peer]), np.array([target_doc]))

    def _batch_hops(self, senders: np.ndarray, targets: np.ndarray) -> int:
        hops = int(np.maximum(self.ring.document_hops(senders, targets), 1).sum())
        self.total_hops += hops
        self.deliveries += len(targets)
        return hops

    def reset(self) -> None:
        self.total_hops = 0
        self.deliveries = 0

    @property
    def mean_hops(self) -> float:
        """Average routed path length per delivery."""
        return self.total_hops / self.deliveries if self.deliveries else 0.0
