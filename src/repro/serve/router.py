"""Query routing over the distributed index (paper §2.4.3).

A query enters the system at a *portal* peer (the user's access
point), which resolves the peer owning the first term's GUID through
the DHT, forwards the query there, and the §2.4.3 incremental protocol
takes over: each index peer intersects, rank-sorts, and forwards the
top x% of surviving hits to the owner of the next term; the last peer
returns the final rank-sorted set to the user.

:class:`QueryRouter` executes that plan against a
:class:`~repro.search.index.DistributedIndex` and *prices* it with the
paper's §4.6 transfer model:

* term-owner discovery routes through the Chord ring, reusing the §3.2
  :class:`~repro.p2p.cache.LocationCache` per sending peer (with a
  term-namespace GUID), so repeat lookups of popular terms go direct;
* each DHT routing hop costs one 24-byte control message;
* each forwarding hop ships the surviving doc ids at
  ``DOC_ID_BYTES`` per id (the §2.4.4 compact-id sizing);
* every index peer visited charges a constant per-hop service time.

Transfers serialise along the query path (the Table 3 reading of
Eq. 4), so a query's service latency is the sum of its hop costs.
Queueing delay is added by the caller (docs/SERVING.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.p2p.cache import LocationCache
from repro.p2p.chord import ChordRing
from repro.p2p.guid import guid_of
from repro.search.baseline import order_terms
from repro.search.bloom import DOC_ID_BYTES
from repro.search.incremental import DEFAULT_MIN_FORWARD, incremental_search
from repro.search.index import DistributedIndex
from repro.search.query import Query
from repro.simulation.timing import TransferModel

__all__ = ["QueryRouter", "RoutedQuery"]


def _term_guid(term: int) -> int:
    return guid_of(str(term), namespace="term")


@dataclass(frozen=True)
class RoutedQuery:
    """Outcome of routing one query through the index peers.

    Attributes
    ----------
    terms:
        The query terms in routing order.
    peers:
        The index peers visited, one per term (ring owners of the
        term GUIDs).
    hits:
        Final rank-sorted result document ids.
    latency:
        Service latency in virtual-clock units: DHT lookups +
        forwarding transfers + per-hop service time, serialised.
    traffic_doc_ids:
        Total document ids moved, including the return to the user.
    dht_hops:
        Chord routing hops paid for term-owner discovery (0 when every
        lookup hit a location cache).
    bytes_on_wire:
        Priced bytes: forwarded ids at ``DOC_ID_BYTES`` each plus one
        24-byte control message per DHT hop and per query forward.
    hop_sizes:
        Document ids shipped per forwarding hop (final entry is the
        return to the user).
    """

    terms: Tuple[int, ...]
    peers: Tuple[int, ...]
    hits: Tuple[int, ...]
    latency: float
    traffic_doc_ids: int
    dht_hops: int
    bytes_on_wire: int
    hop_sizes: Tuple[int, ...]


class QueryRouter:
    """Route multi-term queries peer-to-peer with top-x% forwarding.

    Parameters
    ----------
    index:
        The distributed inverted index holding postings + ranks.
    ring:
        Chord ring used for term-owner discovery (ring-successor
        ownership of the term GUID — the DHT view of the same
        partitioning the index's hash assignment approximates).
    model:
        §4.6 transfer model pricing wire time.
    fraction:
        Top-x% forwarded per hop, in (0, 1].
    min_forward:
        The paper's all-or-top forwarding floor (default 20).
    route_order:
        ``"given"`` or ``"rarest_first"`` term visiting order.
    user_top_k:
        Optional §4.9 pagination cap on the final result.
    service_time:
        Constant per-index-peer compute charge per hop, in clock units.
    """

    def __init__(
        self,
        index: DistributedIndex,
        ring: ChordRing,
        model: TransferModel,
        *,
        fraction: float = 0.1,
        min_forward: int = DEFAULT_MIN_FORWARD,
        route_order: str = "given",
        user_top_k: int | None = None,
        service_time: float = 0.0,
    ) -> None:
        if service_time < 0:
            raise ValueError(f"service_time must be >= 0, got {service_time}")
        self.index = index
        self.ring = ring
        self.model = model
        self.fraction = float(fraction)
        self.min_forward = int(min_forward)
        self.route_order = route_order
        self.user_top_k = user_top_k
        self.service_time = float(service_time)
        self._caches: Dict[int, LocationCache] = {}

    def cache_of(self, peer: int) -> LocationCache:
        """The term-location cache of ``peer`` (created on first use)."""
        cache = self._caches.get(peer)
        if cache is None:
            cache = LocationCache(peer, self.ring, guid_fn=_term_guid)
            self._caches[peer] = cache
        return cache

    def owner_of_term(self, term: int, *, from_peer: int) -> Tuple[int, int]:
        """(owner peer, DHT hops paid) resolving ``term`` from
        ``from_peer`` through its location cache."""
        cache = self.cache_of(from_peer)
        before = cache.stats.routed_hops
        owner = cache.locate(term)
        return owner, cache.stats.routed_hops - before

    def route(self, query: Query, portal_peer: int) -> RoutedQuery:
        """Execute and price ``query`` entering at ``portal_peer``."""
        terms = order_terms(self.index, query, self.route_order)
        outcome = incremental_search(
            self.index,
            query,
            fraction=self.fraction,
            min_forward=self.min_forward,
            route_order=self.route_order,
            user_top_k=self.user_top_k,
        )
        msg = self.model.message_size_bytes
        rate = self.model.rate_bytes_per_s
        peers = []
        current = portal_peer
        total_hops = 0
        wire_bytes = 0
        latency = 0.0
        for i, term in enumerate(terms):
            owner, hops = self.owner_of_term(term, from_peer=current)
            peers.append(owner)
            total_hops += hops
            # Control traffic: the lookup's routed hops plus the query
            # forward itself, one 24 B message each.
            control = (hops + 1) * msg
            # Forwarded hit ids ride the same transfer (none ahead of
            # the first index peer).
            forwarded = outcome.hop_sizes[i - 1] if i > 0 else 0
            payload = forwarded * DOC_ID_BYTES
            wire_bytes += control + payload
            latency += (control + payload) / rate + self.service_time
            current = owner
        # Final hop: the result set back to the user.
        result_bytes = outcome.hop_sizes[-1] * DOC_ID_BYTES
        wire_bytes += result_bytes
        latency += result_bytes / rate
        return RoutedQuery(
            terms=tuple(int(t) for t in terms),
            peers=tuple(peers),
            hits=tuple(int(d) for d in outcome.hits),
            latency=latency,
            traffic_doc_ids=outcome.traffic_doc_ids,
            dht_hops=total_hops,
            bytes_on_wire=wire_bytes,
            hop_sizes=outcome.hop_sizes,
        )
