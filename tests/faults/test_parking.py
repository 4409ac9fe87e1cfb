"""Store-and-resend parking: budget-exhausted batches heal, not vanish.

§3.1's store-and-resend promise, applied to the reliability layer's
retry budget: a batch abandoned because its receiver was dead or its
link partitioned is *parked*, and relaunched as a fresh flight once
the blockage clears.  A batch abandoned to pure loss stays parked —
retrying a hopeless loss rate forever would only mask it.
"""

import numpy as np

from repro.faults import (
    FaultPlan,
    FaultSpec,
    Partition,
    ReliabilityConfig,
    ReliableTransport,
)
from repro.p2p.messages import BatchColumns, PagerankUpdate, UpdateColumns


def make_batch(sender=0, receiver=1, n=3):
    """One batch of ``n`` updates, in the shape ``send`` takes."""
    updates = UpdateColumns.from_updates(
        [PagerankUpdate(target_doc=i, source_doc=100 + i, value=1.0, version=0)
         for i in range(n)]
    )
    return BatchColumns(
        np.array([sender]), np.array([receiver]), np.array([0, n]), updates
    )


def copies_of(batch):
    """Each delivered copy in a ``deliver`` callback's argument, as a
    list of its updates."""
    bounds = batch.offsets.tolist()
    return [
        list(batch.updates.take(np.arange(lo, hi)))
        for lo, hi in zip(bounds, bounds[1:])
    ]


class Sink:
    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.extend(copies_of(batch))
        return np.ones(len(batch.updates), dtype=bool)


def exhaust(tr, live, start=1, end=40):
    for t in range(start, end):
        tr.begin_pass(t)
        tr.tick(t, live)


class TestParkOnDeadReceiver:
    def test_exhaustion_parks_then_heals_on_return(self):
        sink = Sink()
        cfg = ReliabilityConfig(ack_timeout_passes=1, max_retries=2)
        tr = ReliableTransport(FaultPlan(seed=0), cfg, sink)
        down = np.array([True, False])
        tr.begin_pass(0)
        tr.send(0, make_batch(n=4), down)
        exhaust(tr, down)
        # Budget exhausted against a dead receiver: abandoned but parked.
        assert tr.stats.abandoned_updates == 4
        assert tr.parked_batches == 1
        assert tr.stats.parked_updates == 4
        assert tr.undeliverable_updates == 4
        assert not sink.batches
        # Receiver returns: the parked batch relaunches as a fresh
        # flight and delivers; the abandonment is healed.
        alive = np.ones(2, dtype=bool)
        exhaust(tr, alive, start=40, end=45)
        assert len(sink.batches) == 1
        assert len(sink.batches[0]) == 4
        assert tr.parked_batches == 0
        assert tr.stats.parked_resent == 4
        assert tr.undeliverable_updates == 0
        assert tr.black_holed_links() == {}


class TestParkOnPartition:
    def test_transient_partition_heals_after_end_pass(self):
        plan = FaultPlan(
            FaultSpec(
                partitions=(
                    Partition(peer_a=0, peer_b=1, start_pass=0, end_pass=20),
                )
            ),
            seed=0,
        )
        sink = Sink()
        cfg = ReliabilityConfig(ack_timeout_passes=1, max_retries=2)
        tr = ReliableTransport(plan, cfg, sink)
        live = np.ones(2, dtype=bool)
        tr.begin_pass(0)
        tr.send(0, make_batch(n=2), live)
        exhaust(tr, live, end=20)
        assert tr.stats.abandoned_updates == 2
        assert tr.parked_batches == 1
        assert not sink.batches
        # The partition lifts at pass 20: the parked batch relaunches.
        exhaust(tr, live, start=20, end=25)
        assert len(sink.batches) == 1
        assert tr.undeliverable_updates == 0
        assert tr.stats.parked_resent == 2


class TestPureLossStaysParked:
    def test_loss_exhaustion_never_relaunches(self):
        plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=0)
        sink = Sink()
        cfg = ReliabilityConfig(ack_timeout_passes=1, max_retries=3)
        tr = ReliableTransport(plan, cfg, sink)
        live = np.ones(2, dtype=bool)
        tr.begin_pass(0)
        tr.send(0, make_batch(n=4), live)
        exhaust(tr, live, end=60)
        # Never blocked by a partition or a dead peer: the park entry
        # stays put and the abandonment stands (old semantics).
        assert tr.stats.abandoned_updates == 4
        assert tr.undeliverable_updates == 4
        assert tr.parked_batches == 1
        assert tr.stats.parked_resent == 0
        assert not sink.batches
        assert tr.black_holed_links() == {(0, 1): 4}


class TestParkedBookkeeping:
    def test_wipe_sender_drops_parked_batches(self):
        sink = Sink()
        cfg = ReliabilityConfig(ack_timeout_passes=1, max_retries=2)
        tr = ReliableTransport(FaultPlan(seed=0), cfg, sink)
        down = np.array([True, False])
        tr.begin_pass(0)
        tr.send(0, make_batch(n=3), down)
        exhaust(tr, down)
        assert tr.parked_batches == 1
        assert tr.wipe_sender(0) == 3
        assert tr.parked_batches == 0

    def test_diagnose_reflects_healing(self):
        sink = Sink()
        cfg = ReliabilityConfig(ack_timeout_passes=1, max_retries=2)
        tr = ReliableTransport(FaultPlan(seed=0), cfg, sink)
        down = np.array([True, False])
        tr.begin_pass(0)
        tr.send(0, make_batch(n=4), down)
        exhaust(tr, down)
        assert tr.diagnose(40, 5).abandoned_updates == 4
        alive = np.ones(2, dtype=bool)
        exhaust(tr, alive, start=40, end=45)
        diag = tr.diagnose(45, 5)
        assert diag.abandoned_updates == 0
        assert diag.undelivered_mass == 0.0
