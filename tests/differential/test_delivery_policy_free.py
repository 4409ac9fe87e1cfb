"""Differential: a §3.2 delivery policy prices hops and changes nothing else.

The simulator's constructor promises that message counts are
policy-independent: a delivery policy only charges routing hops.  A
lossless run with :class:`~repro.p2p.CachedDirectDelivery` and the same
run without a policy must therefore agree on the ranks, every pass
record's ``messages`` and ``deferred_messages``, every
:class:`~repro.simulation.TrafficSummary` field but ``routing_hops``,
what every peer has heard (``heard_rows``) and the per-edge view.  The
sweep covers three lossless regimes: every peer up, 75 %
``FixedFractionChurn`` availability (§3.1 store-and-resend) and the
same churn with §3.1 re-homing after two absent passes.
"""

import dataclasses

import pytest

from repro.graphs import broder_graph
from repro.p2p import (
    CachedDirectDelivery,
    DocumentPlacement,
    FixedFractionChurn,
    P2PNetwork,
)
from repro.simulation import P2PPagerankSimulation

DOCS, PEERS = 2000, 30
KINDS = ("lossless", "churn", "rehome")


def run(kind, seed, priced):
    graph = broder_graph(DOCS, seed=seed)
    placement = DocumentPlacement.random(DOCS, PEERS, seed=seed + 1)
    network = P2PNetwork(PEERS, placement)
    kwargs = {}
    availability = None
    if kind != "lossless":
        availability = FixedFractionChurn(PEERS, 0.75, seed=seed + 2)
    if kind == "rehome":
        kwargs["rehoming_after"] = 2
    if priced:
        kwargs["delivery_policy"] = CachedDirectDelivery(network.ring)
    sim = P2PPagerankSimulation(graph, network, epsilon=1e-4, **kwargs)
    report = sim.run(availability=availability, max_passes=3000)
    assert report.converged
    return sim, report


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3, 6))
def test_policy_prices_hops_only(kind, seed):
    plain, plain_report = run(kind, seed, priced=False)
    priced, priced_report = run(kind, seed, priced=True)

    assert plain_report.ranks.tobytes() == priced_report.ranks.tobytes()
    assert [(p.messages, p.deferred_messages) for p in plain_report.history] == [
        (p.messages, p.deferred_messages) for p in priced_report.history
    ]
    traffic = dataclasses.asdict(plain.traffic)
    expected = dataclasses.asdict(priced.traffic)
    assert traffic.pop("routing_hops") == 0
    assert expected.pop("routing_hops") > 0
    assert traffic == expected
    assert plain.heard_rows().tobytes() == priced.heard_rows().tobytes()
    assert plain.view.tobytes() == priced.view.tobytes()
