"""Property sweep: the protocol simulator's per-edge view is exact.

:class:`~repro.simulation.P2PPagerankSimulation` pulls every pass from
one engine-level array, ``view``, that must hold for each in-edge
``e = (s -> d)`` exactly what ``d``'s owner sees of ``s``: ``s``'s
published value if the owner stores ``s``, else the newest value the
engine's heard table holds for (owner, ``s``), else the initial rank.
The engine rewrites it at every
publish, applied delivery and §3.1 migration; this sweep checks the
rule on every edge after every pass, over ten seeds of five regimes:
lossless; 75 % ``FixedFractionChurn`` with §3.2 cached-DHT delivery
(store-and-resend); the same churn with re-homing; 20 % message loss
through the reliable transport; and a fault plan with crashes, so that
reboot republishes are covered.  The check hooks
``ConvergenceTracker.record``, which the simulator calls once per pass.
"""

import numpy as np
import pytest

from repro.core.convergence import ConvergenceTracker
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import broder_graph
from repro.p2p import (
    CachedDirectDelivery,
    DocumentPlacement,
    FixedFractionChurn,
    P2PNetwork,
)
from repro.simulation import P2PPagerankSimulation

DOCS, PEERS = 200, 8
KINDS = ("lossless", "churn", "rehome", "loss", "crash")


def build(kind, seed):
    graph = broder_graph(DOCS, seed=seed)
    placement = DocumentPlacement.random(DOCS, PEERS, seed=seed + 1)
    network = P2PNetwork(PEERS, placement, build_ring=kind != "lossless")
    kwargs = {}
    availability = None
    if kind in ("churn", "rehome"):
        availability = FixedFractionChurn(PEERS, 0.75, seed=seed + 2)
    if kind in ("churn", "loss"):
        kwargs["delivery_policy"] = CachedDirectDelivery(network.ring)
    if kind == "rehome":
        kwargs["rehoming_after"] = 2
    if kind == "loss":
        kwargs["faults"] = FaultPlan(FaultSpec(drop_rate=0.2), seed=seed + 3)
    if kind == "crash":
        spec = FaultSpec(
            drop_rate=0.05,
            crashes=((2, 0), (3, 5, 4), (6, 2), (9, 0, 1)),
            crash_down_passes=3,
        )
        kwargs["faults"] = FaultPlan(spec, seed=seed + 3)
    sim = P2PPagerankSimulation(graph, network, epsilon=1e-4, **kwargs)
    return sim, availability


def view_errors(sim):
    """Edges whose view differs from what their target's owner sees."""
    rows = sim.heard_rows()
    heard = dict(zip(rows["key"].tolist(), rows["value"].tolist()))
    src = np.repeat(np.arange(DOCS), sim.graph.out_degrees())
    truth = [
        sim.published[s] if sim._peer_of[s] == o
        else heard.get(o * DOCS + s, sim.init_rank)
        for o, s in zip(sim._peer_of[sim.graph.indices].tolist(), src.tolist())
    ]
    return np.flatnonzero(sim.view != np.asarray(truth))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", KINDS)
def test_view_matches_every_peer_after_every_pass(kind, seed, monkeypatch):
    sim, availability = build(kind, seed)
    checked = []
    record = ConvergenceTracker.record

    def checked_record(tracker, stats):
        bad = view_errors(sim)
        assert bad.size == 0, f"pass {stats.pass_index}: stale view on edges {bad[:10]}"
        checked.append(stats.pass_index)
        return record(tracker, stats)

    monkeypatch.setattr(ConvergenceTracker, "record", checked_record)
    report = sim.run(availability=availability, max_passes=3000)
    assert checked == list(range(report.passes))
    if kind == "rehome":
        assert sim.traffic.migrations > 0
    if kind == "crash":
        assert sim.transport.stats.reboot_republished > 0
