"""Regression pin: the reliable transport's exact fault accounting.

Four small seeded protocol-simulator runs through the reliable
transport (docs/PROTOCOL.md §13): 20 % message loss with §3.2 cached
DHT hop pricing; drop, duplicate, delay and ack-drop together at 75 %
``FixedFractionChurn`` availability; a partition spell long enough to
park batches, plus two crashes whose peers reboot and republish; and a
permanent black-hole partition that aborts on residual stagnation.

For each run every :class:`~repro.faults.FaultStats` field, every
:class:`~repro.simulation.TrafficSummary` field, the pass count, a
digest of the final ranks and the totals of the ``faults.*`` registry
counters are pinned; the aborted run also pins its whole
:class:`~repro.faults.FaultDiagnostics`.  The runs are deterministic
given their seeds, so any change here means the transport drew its
fault outcomes, acknowledged, retransmitted, parked or delivered
differently — not just faster.
"""

import dataclasses
import hashlib

import pytest

from repro import obs
from repro.faults import (
    FaultDiagnostics,
    FaultPlan,
    FaultSpec,
    Partition,
    ReliabilityConfig,
)
from repro.graphs import broder_graph
from repro.p2p import (
    CachedDirectDelivery,
    DocumentPlacement,
    FixedFractionChurn,
    P2PNetwork,
)
from repro.simulation import P2PPagerankSimulation

DOCS, PEERS, SEED = 400, 10, 8


def run(kind):
    graph = broder_graph(DOCS, seed=SEED)
    placement = DocumentPlacement.random(DOCS, PEERS, seed=SEED + 1)
    network = P2PNetwork(PEERS, placement)
    availability = None
    kwargs = {}
    if kind == "loss":
        spec = FaultSpec(drop_rate=0.2)
        kwargs["delivery_policy"] = CachedDirectDelivery(network.ring)
    elif kind == "mixed":
        spec = FaultSpec(
            drop_rate=0.15, duplicate_rate=0.1, delay_rate=0.15,
            max_delay_passes=3, ack_drop_rate=0.1,
        )
        availability = FixedFractionChurn(PEERS, 0.75, seed=SEED + 2)
        kwargs["delivery_policy"] = CachedDirectDelivery(network.ring)
    elif kind == "spell":
        spec = FaultSpec(
            ack_drop_rate=0.1,
            crashes=((4, 2), (9, 6, 3)),
            partitions=(Partition(peer_a=1, peer_b=5, start_pass=2, end_pass=40),),
        )
        kwargs["reliability"] = ReliabilityConfig(ack_timeout_passes=1, max_retries=3)
    else:
        spec = FaultSpec(drop_rate=0.05, partitions=(Partition(peer_a=3),))
    sim = P2PPagerankSimulation(
        graph, network, epsilon=1e-4, faults=FaultPlan(spec, seed=SEED + 3), **kwargs
    )
    with obs.use_registry() as reg:
        report = sim.run(availability=availability, max_passes=3000)
        snapshot = reg.snapshot()
    counters = {
        name: entry["value"]
        for name, entry in snapshot.items()
        if name.startswith("faults.")
    }
    return report, sim, counters


def observed(kind):
    report, sim, counters = run(kind)
    return dict(
        passes=report.passes,
        converged=report.converged,
        digest=hashlib.sha256(report.ranks.tobytes()).hexdigest()[:16],
        stats=dataclasses.asdict(sim.transport.stats),
        traffic=dataclasses.asdict(sim.traffic),
        counters=counters,
        diagnostics=report.diagnostics,
    )


def stats(dropped, duplicated, delayed, acks, ack_drops, retries, suppressed,
          blocked, abandoned, parked, parked_resent, crashes, state_loss,
          republished, aborts):
    """A pinned :class:`FaultStats`, fields in declaration order."""
    return dict(
        dropped_updates=dropped, duplicated_updates=duplicated,
        delayed_updates=delayed, acks_sent=acks, acks_dropped=ack_drops,
        retries=retries, redeliveries_suppressed=suppressed,
        partition_blocked_sends=blocked, abandoned_updates=abandoned,
        parked_updates=parked, parked_resent=parked_resent, crashes=crashes,
        crash_state_loss=state_loss, reboot_republished=republished,
        stagnation_aborts=aborts,
    )


def counters(dropped, duplicated, delayed, acks, ack_drops, retries, suppressed,
             blocked, abandoned, parked, parked_resent, crashes, state_loss,
             republished, aborts):
    """Pinned ``faults.*`` registry totals, in :func:`stats` order."""
    return {
        "faults.messages_dropped": dropped,
        "faults.messages_duplicated": duplicated,
        "faults.messages_delayed": delayed,
        "faults.ack_messages": acks,
        "faults.acks_dropped": ack_drops,
        "faults.retries": retries,
        "faults.redeliveries_suppressed": suppressed,
        "faults.partition_blocked_sends": blocked,
        "faults.abandoned_updates": abandoned,
        "faults.parked_updates": parked,
        "faults.parked_resent": parked_resent,
        "faults.crashes": crashes,
        "faults.crash_state_loss": state_loss,
        "faults.reboot_republished": republished,
        "faults.stagnation_aborts": aborts,
    }


def traffic(messages, resent, batches, hops, wire_bytes):
    """A pinned :class:`TrafficSummary` (no run here re-homes)."""
    return dict(
        update_messages=messages, resent_messages=resent,
        network_batches=batches, routing_hops=hops,
        bytes_transferred=wire_bytes, migrations=0,
    )


LOSS = (1153, 0, 0, 1785, 341, 820, 793, 0, 0, 0, 0, 0, 0, 0, 0)
MIXED = (799, 387, 902, 1656, 167, 989, 766, 0, 0, 0, 0, 0, 0, 0, 0)
SPELL = (0, 0, 0, 1757, 182, 292, 430, 76, 25, 25, 25, 2, 11, 123, 0)
ABORT = (157, 0, 0, 1116, 53, 745, 167, 693, 172, 172, 0, 0, 0, 0, 1)

PINNED = {
    "loss": dict(
        passes=66, converged=True, digest="f21c893a1b1f691d",
        stats=stats(*LOSS), traffic=traffic(4049, 1549, 1785, 4823, 97176),
        counters=counters(*LOSS), diagnostics=None,
    ),
    "mixed": dict(
        passes=102, converged=True, digest="ca929ac01091cde0",
        stats=stats(*MIXED), traffic=traffic(4022, 1597, 1828, 4796, 96528),
        counters=counters(*MIXED), diagnostics=None,
    ),
    "spell": dict(
        passes=66, converged=True, digest="af8a9629bd0ed7d9",
        stats=stats(*SPELL), traffic=traffic(3959, 540, 1757, 0, 95016),
        counters=counters(*SPELL), diagnostics=None,
    ),
    "abort": dict(
        passes=112, converged=False, digest="b9c41e46d3451076",
        stats=stats(*ABORT), traffic=traffic(2646, 310, 1116, 0, 63504),
        counters=counters(*ABORT),
        diagnostics=FaultDiagnostics(
            fired_at_pass=111,
            stagnant_passes=25,
            black_holed_links=(
                ((0, 3), 32), ((1, 3), 11), ((2, 3), 3), ((3, 0), 5),
                ((3, 1), 5), ((3, 2), 7), ((3, 4), 1), ((3, 5), 4),
                ((3, 6), 1), ((3, 7), 10), ((3, 8), 1), ((3, 9), 3),
                ((4, 3), 16), ((5, 3), 16), ((6, 3), 28), ((7, 3), 23),
                ((8, 3), 4), ((9, 3), 2),
            ),
            black_holed_peers=(3,),
            abandoned_updates=172,
            unacked_updates=0,
            undelivered_mass=113.91854962532757,
        ),
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_fault_traffic_pinned(kind):
    assert observed(kind) == PINNED[kind]
