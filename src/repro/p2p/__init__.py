"""P2P/DHT substrate (paper §2.1, §2.4.2, §3).

The layers the distributed pagerank computation sits on:

* :mod:`~repro.p2p.guid` — SHA-1 GUIDs on a 128-bit ring;
* :mod:`~repro.p2p.chord` — Chord-like DHT with finger routing;
* :mod:`~repro.p2p.network` — document placement and peer-pair link
  accounting;
* :mod:`~repro.p2p.peer` / :mod:`~repro.p2p.messages` — the protocol
  state machine and the 24-byte update-message model;
* :mod:`~repro.p2p.churn` — peer availability models (§3.1);
* :mod:`~repro.p2p.cache` / :mod:`~repro.p2p.routing` — location
  caching vs. anonymity-preserving routed delivery (§3.2).
"""

from repro.p2p.cache import CacheStats, LocationCache
from repro.p2p.chord import ChordRing, LookupResult
from repro.p2p.churn import AlwaysOn, FixedFractionChurn, IndependentChurn, MarkovChurn
from repro.p2p.guid import (
    ID_BITS,
    ID_SPACE,
    document_guid,
    guid_of,
    in_interval,
    peer_guid,
    ring_distance,
)
from repro.p2p.messages import (
    ACK_SIZE_BYTES,
    MESSAGE_SIZE_BYTES,
    BatchAck,
    BatchColumns,
    MessageBatch,
    Outbox,
    PagerankUpdate,
    UpdateColumns,
)
from repro.p2p.network import DocumentPlacement, P2PNetwork
from repro.p2p.peer import PassOutcome, Peer
from repro.p2p.replication import ReplicaRegistry, replicated_message_cost
from repro.p2p.freenet import FreenetDelivery, FreenetNetwork, FreenetRouteResult
from repro.p2p.strategies import (
    cross_edge_fraction,
    host_clustered_placement,
    link_clustered_placement,
    random_placement,
    refine_placement,
)
from repro.p2p.routing import (
    CachedDirectDelivery,
    DeliveryPolicy,
    OracleDirectDelivery,
    RoutedDelivery,
)

__all__ = [
    "ID_BITS",
    "ID_SPACE",
    "guid_of",
    "document_guid",
    "peer_guid",
    "ring_distance",
    "in_interval",
    "ChordRing",
    "LookupResult",
    "AlwaysOn",
    "FixedFractionChurn",
    "IndependentChurn",
    "MarkovChurn",
    "MESSAGE_SIZE_BYTES",
    "ACK_SIZE_BYTES",
    "PagerankUpdate",
    "UpdateColumns",
    "BatchColumns",
    "MessageBatch",
    "BatchAck",
    "Outbox",
    "DocumentPlacement",
    "P2PNetwork",
    "Peer",
    "PassOutcome",
    "CacheStats",
    "LocationCache",
    "DeliveryPolicy",
    "OracleDirectDelivery",
    "CachedDirectDelivery",
    "RoutedDelivery",
    "random_placement",
    "link_clustered_placement",
    "refine_placement",
    "host_clustered_placement",
    "cross_edge_fraction",
    "ReplicaRegistry",
    "replicated_message_cost",
    "FreenetNetwork",
    "FreenetDelivery",
    "FreenetRouteResult",
]
