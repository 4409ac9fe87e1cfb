"""Regression pin: the concurrent runtime's exact schedule accounting.

Scheduler rounds, traffic, reliability and recompute counters, the
churn deferral count, the final virtual time, and a digest of the
final ranks of four small seeded deterministic-mode runs: lossless at
``FixedLatency``; ``ExponentialLatency`` jitter; ``OnOffSchedule``
churn plus a 10 % drop ``FaultPlan``; and a supervised ``recovery``
crash run.  Recorded before the peer node's recompute worklist became
a time-keyed schedule, so any change here means the default
(``batch_window=0``) runtime delivered, recomputed, acknowledged or
retried in a different order — not just faster.
"""

import asyncio
import hashlib

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.recovery import RecoveryConfig
from repro.runtime import (
    AsyncPeerRuntime,
    ExponentialLatency,
    FixedLatency,
    OnOffSchedule,
)

DOCS, PEERS, SEED = 300, 8, 5

PINNED = {
    "lossless": dict(
        rounds=48, messages=2681, batches=853, acks=853, retries=0,
        recomputes=1875, deferred_deliveries=0, clock_time=47.0,
        digest="e859f6023c8a9610",
    ),
    "jitter": dict(
        rounds=6294, messages=3484, batches=2013, acks=2841, retries=828,
        recomputes=4824, deferred_deliveries=0,
        clock_time=48.009691142709514, digest="0ad32597218918b5",
    ),
    "churn_loss": dict(
        rounds=350, messages=2384, batches=848, acks=1203, retries=490,
        recomputes=2012, deferred_deliveries=537,
        clock_time=94.43582731494291, digest="1e759ba2a606fe69",
    ),
    "crash": dict(
        rounds=50, messages=2763, batches=849, acks=882, retries=33,
        recomputes=1794, deferred_deliveries=0, clock_time=47.0,
        digest="44c6675c4e2cfcf1",
    ),
}

FIELDS = (
    "rounds", "messages", "batches", "acks", "retries", "recomputes",
    "deferred_deliveries", "clock_time",
)


def run(kind):
    graph = broder_graph(DOCS, seed=SEED)
    placement = DocumentPlacement.random(DOCS, PEERS, seed=SEED + 1)
    network = P2PNetwork(PEERS, placement, build_ring=False)
    kwargs = {}
    if kind == "lossless":
        kwargs["latency"] = FixedLatency(1.0)
    elif kind == "jitter":
        kwargs["latency"] = ExponentialLatency(1.0)
    elif kind == "churn_loss":
        kwargs["availability"] = OnOffSchedule(
            PEERS, mean_up=10.0, mean_down=3.0, seed=SEED + 2
        )
        kwargs["faults"] = FaultPlan(FaultSpec(drop_rate=0.1), seed=SEED + 3)
    elif kind == "crash":
        kwargs["faults"] = FaultPlan(
            FaultSpec(crashes=((2, 1), (4, 3, 3))), seed=SEED + 4
        )
        kwargs["recovery"] = RecoveryConfig()
    runtime = AsyncPeerRuntime(
        graph, network, epsilon=1e-4, seed=SEED + 5, **kwargs
    )
    report = asyncio.run(runtime.run())
    assert report.converged
    assert report.crashes == (2 if kind == "crash" else 0)
    out = {name: getattr(report, name) for name in FIELDS}
    out["digest"] = hashlib.sha256(report.ranks.tobytes()).hexdigest()[:16]
    return out


@pytest.mark.parametrize("kind", ["lossless", "jitter", "churn_loss", "crash"])
def test_runtime_report_pinned(kind):
    assert run(kind) == PINNED[kind]
