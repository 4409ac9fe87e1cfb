"""Regression pin: the vectorized engines' exact traffic and pass records.

Small seeded runs of every caller of the sharded pass step
(:mod:`repro.core.shard`): :class:`~repro.core.ChaoticPagerank` with
every peer up, at 75 % ``FixedFractionChurn`` availability, under churn
plus 20 % injected loss, and with a teleport ``preference``; a
warm-started two-stage :func:`~repro.core.scheduled_pagerank`; one
:class:`~repro.core.ChaoticLinearSolver` system; and
:class:`~repro.parallel.ParallelPagerank` over three in-process shards,
all up and under churn plus loss.

Each run pins its pass count, ``total_messages``, a digest of the final
ranks and a digest of the whole per-pass :class:`PassStats` history;
the parallel runs also pin their :class:`ExchangeStats`.  The runs are
deterministic given their seeds, so any change here means the pass
step recomputed, gated, delivered, deferred or parked differently —
not just faster.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.sparse import random as sparse_random

from repro.core import ChaoticLinearSolver, ChaoticPagerank, LinearSystem, scheduled_pagerank
from repro.faults import FaultPlan, FaultSpec
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, FixedFractionChurn
from repro.parallel import ParallelPagerank

DOCS, PEERS, SEED = 600, 12, 5
EPSILON = 1e-5


def _digest(data) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _history_digest(history) -> str:
    rows = [dataclasses.astuple(stats) for stats in history]
    return _digest(repr(rows).encode())


def summary(report, exchange=None):
    out = {
        "passes": report.passes,
        "messages": report.total_messages,
        "converged": bool(report.converged),
        "ranks": _digest(report.ranks.tobytes()),
        "history": _history_digest(report.history),
    }
    if exchange is not None:
        out["exchange"] = dataclasses.astuple(exchange)
    return out


@pytest.fixture(scope="module")
def workload():
    graph = broder_graph(DOCS, seed=SEED)
    assignment = DocumentPlacement.random(DOCS, PEERS, seed=SEED + 1).assignment
    return graph, assignment


def churn():
    return FixedFractionChurn(PEERS, 0.75, seed=SEED + 2)


def loss_spec():
    return FaultSpec(drop_rate=0.2)


def run(kind, workload):
    graph, assignment = workload
    if kind == "scheduled":
        return summary(scheduled_pagerank(graph, assignment, schedule=(1e-2, EPSILON)))
    if kind == "linear":
        rng = np.random.default_rng(SEED)
        m = sparse_random(300, 300, density=0.02, random_state=SEED, format="csr")
        m = m.multiply(0.9 / max(float(abs(m).sum(axis=1).max()), 1e-12)).tocsr()
        system = LinearSystem(m, rng.uniform(0.5, 1.5, 300))
        placement = DocumentPlacement.random(300, PEERS, seed=SEED + 1).assignment
        return summary(ChaoticLinearSolver(system, placement, epsilon=1e-8).run())
    if kind.startswith("parallel"):
        engine = ParallelPagerank(
            graph, assignment, shards=3, epsilon=EPSILON, backend="in-process"
        )
        kwargs = {}
        if kind == "parallel-churn-loss":
            kwargs = dict(
                availability=churn(), fault_spec=loss_spec(), fault_seed=SEED + 3
            )
        report = engine.run(**kwargs)
        return summary(report, engine.last_exchange)
    kwargs = {}
    if kind == "preference":
        pref = np.random.default_rng(SEED + 4).uniform(0.0, 1.0, DOCS)
        pref[::7] = 0.0
        engine = ChaoticPagerank(graph, assignment, epsilon=EPSILON, preference=pref)
    else:
        engine = ChaoticPagerank(graph, assignment, epsilon=EPSILON)
    if kind in ("churn", "churn-loss"):
        kwargs["availability"] = churn()
    if kind == "churn-loss":
        kwargs["fault_plan"] = FaultPlan(loss_spec(), seed=SEED + 3)
    return summary(engine.run(**kwargs))


PINNED = {
    "all-up": dict(
        passes=40, messages=8928, converged=True,
        ranks="d5da42a32e67dfaf", history="d28a50adda17f7eb",
    ),
    "churn": dict(
        passes=82, messages=7874, converged=True,
        ranks="ca837a03fec8a37c", history="b43f86805c1c6b1d",
    ),
    "churn-loss": dict(
        passes=115, messages=7199, converged=True,
        ranks="d132406de58d3cf9", history="4c36cbd897a38c3b",
    ),
    "preference": dict(
        passes=41, messages=8949, converged=True,
        ranks="c4c3f159776b5e06", history="a5c197c171a6c035",
    ),
    "scheduled": dict(
        passes=52, messages=7706, converged=True,
        ranks="acae8e99e55251bb", history="d7df49cb9f2481dc",
    ),
    "linear": dict(
        passes=18, messages=26895, converged=True,
        ranks="70cca75d9e587d55", history="501e230d4505ba06",
    ),
    # Three shards, all up: the same bits and records as the serial run.
    "parallel-all-up": dict(
        passes=40, messages=8928, converged=True,
        ranks="d5da42a32e67dfaf", history="d28a50adda17f7eb",
        exchange=(6488, 155712, 6488),
    ),
    "parallel-churn-loss": dict(
        passes=112, messages=7820, converged=True,
        ranks="e628d1b373c4b999", history="f077a446d7d54a06",
        exchange=(3697, 88728, 3697),
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_engine_traffic_pinned(kind, workload):
    assert run(kind, workload) == PINNED[kind]
