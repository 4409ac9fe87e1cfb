"""Regression pin: the protocol simulator's exact traffic accounting.

Every :class:`~repro.simulation.TrafficSummary` field and the pass
count of four small seeded runs, recorded before the simulator's
exchange became columnar: lossless; lossless at 75 %
``FixedFractionChurn`` availability (§3.1 store-and-resend, with §3.2
cached-DHT hop pricing); the same churn with §3.1 re-homing; and 20 %
message loss through the reliable transport (per-flight batches, hop
pricing).  The runs are deterministic, so any change here means the
exchange delivered, stored, batched or priced updates differently —
not just faster.  The final ranks are pinned by digest for the same
reason.
"""

import hashlib

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import broder_graph
from repro.p2p import (
    CachedDirectDelivery,
    DocumentPlacement,
    FixedFractionChurn,
    P2PNetwork,
)
from repro.simulation import P2PPagerankSimulation

DOCS, PEERS, SEED = 600, 12, 5

PINNED = {
    "lossless": dict(
        passes=33, update_messages=7305, resent_messages=0,
        network_batches=2182, bytes_transferred=175320, routing_hops=0,
        migrations=0, digest="ba57aa15b5c5000a",
    ),
    "churn": dict(
        passes=65, update_messages=6576, resent_messages=1587,
        network_batches=2084, bytes_transferred=157824, routing_hops=8014,
        migrations=0, digest="41bae05f40c40c60",
    ),
    "rehome": dict(
        passes=83, update_messages=7158, resent_messages=1472,
        network_batches=2561, bytes_transferred=171792, routing_hops=0,
        migrations=4877, digest="e4896ecae9473b7f",
    ),
    "loss": dict(
        passes=74, update_messages=9327, resent_messages=3075,
        network_batches=2963, bytes_transferred=223848, routing_hops=10765,
        migrations=0, digest="a0a44028f55ff91d",
    ),
}


def run(kind):
    graph = broder_graph(DOCS, seed=SEED)
    placement = DocumentPlacement.random(DOCS, PEERS, seed=SEED + 1)
    network = P2PNetwork(PEERS, placement, build_ring=kind != "lossless")
    kwargs = {}
    availability = None
    if kind in ("churn", "rehome"):
        availability = FixedFractionChurn(PEERS, 0.75, seed=SEED + 2)
    if kind in ("churn", "loss"):
        kwargs["delivery_policy"] = CachedDirectDelivery(network.ring)
    if kind == "rehome":
        kwargs["rehoming_after"] = 2
    if kind == "loss":
        kwargs["faults"] = FaultPlan(FaultSpec(drop_rate=0.2), seed=SEED + 3)
    sim = P2PPagerankSimulation(graph, network, epsilon=1e-4, **kwargs)
    report = sim.run(availability=availability, max_passes=3000)
    assert report.converged
    t = sim.traffic
    return dict(
        passes=report.passes,
        update_messages=t.update_messages,
        resent_messages=t.resent_messages,
        network_batches=t.network_batches,
        bytes_transferred=t.bytes_transferred,
        routing_hops=t.routing_hops,
        migrations=t.migrations,
        digest=hashlib.sha256(report.ranks.tobytes()).hexdigest()[:16],
    )


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_traffic_summary_pinned(kind):
    assert run(kind) == PINNED[kind]
