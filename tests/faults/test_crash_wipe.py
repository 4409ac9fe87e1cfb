"""A crash wipes its sender's spent flights, in both transports.

A flight whose retry budget ran out is *spent*: the simulator's
reliable transport parks its batch, the runtime's flight tracker keeps
it per receiver.  Those spent flights are the only record of what a
link still owes, so when their sender crashes they go with its other
volatile state, and the reboot republish (which re-announces every
published value at its current version) supersedes them.  Each
end-to-end case below crashes peer 1 after some of its flights were
spent; it must still certify convergence, and the simulator must not
certify before the reboot republish has reached peer 1's consumers.
"""

import asyncio

import numpy as np

from repro.core.pagerank import DEFAULT_DAMPING
from repro.faults import (
    FaultPlan,
    FaultSpec,
    Partition,
    ReliabilityConfig,
    ReliableTransport,
)
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.p2p.messages import (
    BatchAck,
    BatchColumns,
    MessageBatch,
    PagerankUpdate,
    UpdateColumns,
)
from repro.recovery import RecoveryConfig
from repro.runtime import AsyncPeerRuntime
from repro.runtime.reliability import FlightTracker
from repro.simulation import P2PPagerankSimulation

EPSILON = 1e-4
#: How far an ε-converged run may sit from the fixed point, relative
#: to each rank: every pass moves each rank by less than ε, and the
#: damped iteration contracts that by ``DEFAULT_DAMPING`` per pass.
AGREEMENT = EPSILON / (1 - DEFAULT_DAMPING)
RELIABILITY = ReliabilityConfig(ack_timeout_passes=1, max_retries=3)
CRASH = ((25, 1, 3),)  # peer 1 crashes at pass 25, down for 3 passes


def network():
    return P2PNetwork(10, DocumentPlacement.random(400, 10, seed=9), build_ring=False)


def simulate(faults, reliability=RELIABILITY):
    sim = P2PPagerankSimulation(
        broder_graph(400, seed=8),
        network(),
        epsilon=EPSILON,
        faults=faults,
        reliability=reliability if faults is not None else None,
    )
    return sim, sim.run()


def assert_matches_fault_free(ranks):
    _, reference = simulate(None)
    assert reference.converged
    rel = np.abs(ranks - reference.ranks) / reference.ranks
    assert float(rel.max()) < AGREEMENT


def test_simulator_crash_after_spent_flights_certifies_convergence():
    spec = FaultSpec(
        partitions=(Partition(1, 5, start_pass=2, end_pass=60),), crashes=CRASH
    )
    sim, report = simulate(FaultPlan(spec, seed=11))
    assert report.diagnostics is None
    assert report.converged
    assert sim.transport.stats.crashes == 1
    assert sim.transport.undeliverable_updates == 0
    assert sim.transport.black_holed_links() == {}
    assert_matches_fault_free(report.ranks)


class LossyUntil(FaultPlan):
    """A plan that loses every send attempt from ``peer`` before pass
    ``until`` to plain loss, on an open link to an up receiver; such
    spent batches are parked and never relaunched."""

    def __init__(self, spec, *, peer, until):
        super().__init__(spec, seed=0)
        self.peer, self.until = peer, until

    def roll_attempts(self, pass_index, senders, receivers, receiver_live):
        fates = super().roll_attempts(pass_index, senders, receivers, receiver_live)
        if pass_index < self.until:
            lost = senders == self.peer
            fates.dropped[lost] = True
            fates.acks[lost] = fates.ack_drops[lost] = 0
        return fates


def test_simulator_waits_for_the_reboot_republish_of_loss_parked_flights():
    reliability = ReliabilityConfig(ack_timeout_passes=1, max_retries=2)
    # Peer 1's early batches are all lost and parked; the rest of the
    # system goes quiescent around pass 61 and, left alone, the run
    # aborts as stagnant over them.
    sim, report = simulate(LossyUntil(FaultSpec(), peer=1, until=10), reliability)
    assert not report.converged and report.diagnostics is not None
    assert set(sim.transport.black_holed_links()) <= {
        (1, r) for r in range(10)
    }
    # Crashing peer 1 while quiescent wipes those parked rows: nothing
    # is owed any more, but its consumers still hold its stale values
    # until it reboots and republishes.
    crash_pass, down = 70, 3
    plan = LossyUntil(FaultSpec(crashes=((crash_pass, 1, down),)), peer=1, until=10)
    sim, report = simulate(plan, reliability)
    assert report.converged and report.diagnostics is None
    assert sim.transport.stats.crash_state_loss > 0
    assert sim.transport.stats.reboot_republished > 0
    assert report.passes > crash_pass + down
    assert_matches_fault_free(report.ranks)


def test_runtime_crash_after_spent_flights_certifies_convergence():
    spec = FaultSpec(partitions=(Partition(1, 5, 2, 20),), crashes=CRASH)
    runtime = AsyncPeerRuntime(
        broder_graph(400, seed=8),
        network(),
        epsilon=1e-4,
        faults=FaultPlan(spec, seed=11),
        reliability=RELIABILITY,
        recovery=RecoveryConfig(),
        seed=12,
    )
    report = asyncio.run(runtime.run())
    assert (report.crashes, report.restarts) == (1, 1)
    assert report.abandoned_updates == 0
    assert report.converged


def make_batch(sender=0, receiver=1, n=3):
    """One batch of ``n`` unit updates, in the shape ``send`` takes."""
    updates = UpdateColumns.from_updates(
        [PagerankUpdate(target_doc=i, source_doc=100 + i, value=1.0, version=0)
         for i in range(n)]
    )
    return BatchColumns(
        np.array([sender]), np.array([receiver]), np.array([0, n]), updates
    )


def sink(batch):
    return np.ones(len(batch.updates), dtype=bool)


def exhaust(tr, live, start=1, end=40):
    for t in range(start, end):
        tr.begin_pass(t)
        tr.tick(t, live)


class TestReliableTransportWipe:
    def test_wipe_sender_after_parking_owes_nothing(self):
        cfg = ReliabilityConfig(ack_timeout_passes=1, max_retries=2)
        tr = ReliableTransport(FaultPlan(seed=0), cfg, sink)
        down = np.array([True, False])
        tr.begin_pass(0)
        tr.send(0, make_batch(n=4), down)
        exhaust(tr, down)
        assert tr.black_holed_links() == {(0, 1): 4}
        assert tr.undeliverable_updates == 4
        assert tr.wipe_sender(0) == 4
        assert tr.undeliverable_updates == 0
        assert tr.black_holed_links() == {}
        diag = tr.diagnose(40, 5)
        assert diag.abandoned_updates == 0
        assert diag.black_holed_links == ()
        assert diag.undelivered_mass == 0.0
        # The cumulative stats still record what was parked.
        assert tr.stats.abandoned_updates == tr.stats.parked_updates == 4

    def test_wipe_sender_keeps_other_senders_parked(self):
        cfg = ReliabilityConfig(ack_timeout_passes=1, max_retries=1)
        tr = ReliableTransport(FaultPlan(seed=0), cfg, sink)
        live = np.array([True, False, True])
        tr.begin_pass(0)
        tr.send(0, make_batch(0, 1, n=2), live)
        tr.send(0, make_batch(2, 1, n=5), live)
        exhaust(tr, live, end=20)
        assert tr.black_holed_links() == {(0, 1): 2, (2, 1): 5}
        assert tr.wipe_sender(2) == 5
        assert tr.black_holed_links() == {(0, 1): 2}
        assert tr.undeliverable_updates == 2
        assert tr.diagnose(20, 5).abandoned_updates == 2


def spent_tracker(n=3, receiver=1):
    """A tracker holding one spent flight of ``n`` updates."""
    tracker = FlightTracker(ReliabilityConfig(max_retries=0))
    tracker.launch(
        MessageBatch(
            sender_peer=0,
            receiver_peer=receiver,
            updates=[
                PagerankUpdate(target_doc=i, source_doc=9, value=-2.0, version=0)
                for i in range(n)
            ],
        ),
        now=0.0,
    )
    assert tracker.due(tracker.next_due()) == []
    return tracker


class TestFlightTrackerWipe:
    def test_wipe_after_spent_flight_owes_nothing(self):
        tracker = spent_tracker(n=3)
        assert tracker.abandoned_updates == 3
        assert tracker.abandoned_mass == 6.0
        unacked = tracker.launch(
            MessageBatch(0, 2, [PagerankUpdate(0, 9, 1.0, 0)]), now=0.0
        )
        assert tracker.wipe() == 4
        assert tracker.abandoned_updates == 0
        assert tracker.abandoned_mass == 0.0
        assert tracker.undeliverable_updates == 0
        assert tracker.forgive(1) == 0
        assert not tracker.on_ack(BatchAck(unacked.flight_id, 2, 0))

    def test_forgive_pops_one_receivers_spent_flights(self):
        tracker = spent_tracker(n=3, receiver=1)
        assert tracker.forgive(2) == 0
        assert tracker.abandoned_updates == 3
        assert tracker.forgive(1) == 3
        assert tracker.abandoned_updates == 0
        assert tracker.forgive(1) == 0
