"""Open loss debt: three faulted runs that should certify convergence.

Each test asserts certified convergence on a reproduction that
currently strands updates, so all are strict expected failures.  A
batch whose retry budget runs out is parked (simulator) or abandoned
(runtime) and relaunched only when a partition or a down receiver
marked it undeliverable, so a link that lost its last attempt to plain
loss, or to a partition that has since lifted, is never re-armed.  The
planned anti-entropy re-send of the latest published values must flip
all three tests to passing, and then the markers go.
"""

import asyncio

import pytest

from repro.faults import FaultPlan, FaultSpec, Partition, ReliabilityConfig
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import AsyncPeerRuntime
from repro.simulation import P2PPagerankSimulation

DEBT = (
    "ROADMAP correctness debt 'Converge under pure message loss, in both "
    "transports': budget-exhausted batches are never relaunched"
)


@pytest.mark.xfail(strict=True, reason=DEBT)
def test_simulator_partition_spell_certifies_convergence():
    # Aborts at pass 72 with 15 updates stranded on links 1 <-> 5.
    graph = broder_graph(400, seed=8)
    network = P2PNetwork(10, DocumentPlacement.random(400, 10, seed=9), build_ring=False)
    spec = FaultSpec(partitions=(Partition(1, 5, start_pass=2, end_pass=20),))
    sim = P2PPagerankSimulation(
        graph,
        network,
        epsilon=1e-4,
        faults=FaultPlan(spec, seed=11),
        reliability=ReliabilityConfig(ack_timeout_passes=1, max_retries=3),
    )
    report = sim.run()
    assert report.diagnostics is None
    assert report.converged


@pytest.mark.xfail(strict=True, reason=DEBT)
def test_runtime_thirty_percent_loss_certifies_convergence():
    # Ends with converged False and 6 updates abandoned.
    graph = broder_graph(1000, seed=7)
    network = P2PNetwork(50, DocumentPlacement.random(1000, 50, seed=8), build_ring=False)
    runtime = AsyncPeerRuntime(
        graph,
        network,
        epsilon=1e-4,
        faults=FaultPlan(FaultSpec(drop_rate=0.3), seed=10),
        seed=11,
    )
    report = asyncio.run(runtime.run())
    assert report.abandoned_updates == 0
    assert report.converged


@pytest.mark.xfail(strict=True, reason=DEBT)
def test_runtime_partition_spell_certifies_convergence():
    # The simulator's partition case on the runtime: spent flights are
    # never relaunched when the partition lifts.  Ends with converged
    # False, 26 updates abandoned and max_staleness 0.8165.
    graph = broder_graph(400, seed=8)
    network = P2PNetwork(10, DocumentPlacement.random(400, 10, seed=9), build_ring=False)
    spec = FaultSpec(partitions=(Partition(1, 5, start_pass=2, end_pass=20),))
    runtime = AsyncPeerRuntime(
        graph,
        network,
        epsilon=1e-4,
        faults=FaultPlan(spec, seed=11),
        reliability=ReliabilityConfig(ack_timeout_passes=1, max_retries=3),
        seed=12,
    )
    report = asyncio.run(runtime.run())
    assert report.abandoned_updates == 0
    assert report.converged
