"""Unit tests of the reliable-delivery layer (repro.faults.transport)."""

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    Partition,
    ReliabilityConfig,
    ReliableTransport,
    StagnationDetector,
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
    """Delivery callback standing in for the engine."""

    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.extend(copies_of(batch))
        return np.ones(len(batch.updates), dtype=bool)


class TestReliabilityConfig:
    def test_backoff_growth(self):
        cfg = ReliabilityConfig(ack_timeout_passes=2, backoff_factor=2.0)
        assert cfg.retry_delay(1) == 2
        assert cfg.retry_delay(2) == 4
        assert cfg.retry_delay(3) == 8

    def test_backoff_capped(self):
        cfg = ReliabilityConfig(
            ack_timeout_passes=2, backoff_factor=2.0, max_retry_delay_passes=8
        )
        # Uncapped this would be 2 * 2**9 = 1024 — longer than any
        # reasonable stagnation window.
        assert cfg.retry_delay(10) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(ack_timeout_passes=0)
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff_factor=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retry_delay_passes=0)


class TestReliableTransport:
    def test_clean_send_delivers_and_acks(self):
        sink = Sink()
        tr = ReliableTransport(FaultPlan(seed=0), ReliabilityConfig(), sink)
        live = np.ones(2, dtype=bool)
        tr.begin_pass(0)
        tr.send(0, make_batch(), live)
        assert len(sink.batches) == 1
        assert tr.unacked_flights == 0
        assert tr.pass_delivered == 3

    def test_dropped_send_retries_until_acked(self):
        # Drop everything at first, then heal: the flight must survive
        # on retries and eventually deliver.
        plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=0)
        sink = Sink()
        tr = ReliableTransport(plan, ReliabilityConfig(ack_timeout_passes=1), sink)
        live = np.ones(2, dtype=bool)
        tr.begin_pass(0)
        tr.send(0, make_batch(), live)
        assert not sink.batches and tr.unacked_flights == 1
        # Heal the network by swapping in a clean plan mid-run.
        tr.plan = FaultPlan(seed=1)
        for t in range(1, 10):
            tr.begin_pass(t)
            tr.tick(t, live)
            if sink.batches:
                break
        assert len(sink.batches) == 1
        assert tr.unacked_flights == 0
        assert tr.stats.retries >= 1

    def test_retry_budget_exhaustion_abandons(self):
        plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=0)
        sink = Sink()
        cfg = ReliabilityConfig(ack_timeout_passes=1, max_retries=3)
        tr = ReliableTransport(plan, cfg, sink)
        live = np.ones(2, dtype=bool)
        tr.begin_pass(0)
        tr.send(0, make_batch(n=4), live)
        for t in range(1, 40):
            tr.begin_pass(t)
            tr.tick(t, live)
        assert tr.unacked_flights == 0
        assert tr.stats.abandoned_updates == 4
        assert tr.black_holed_links() == {(0, 1): 4}

    def test_partition_blocks_and_counts(self):
        plan = FaultPlan(FaultSpec(partitions=(Partition(peer_a=0, peer_b=1),)), seed=0)
        sink = Sink()
        tr = ReliableTransport(plan, ReliabilityConfig(), sink)
        live = np.ones(3, dtype=bool)
        tr.begin_pass(0)
        tr.send(0, make_batch(0, 1), live)
        tr.send(0, make_batch(0, 2), live)
        assert len(sink.batches) == 1  # only the 0->2 batch arrived
        assert tr.stats.partition_blocked_sends == 1
        assert tr.unacked_flights == 1

    def test_receiver_down_copy_lost_then_retried(self):
        sink = Sink()
        tr = ReliableTransport(
            FaultPlan(seed=0), ReliabilityConfig(ack_timeout_passes=1), sink
        )
        live = np.array([True, False])
        tr.begin_pass(0)
        tr.send(0, make_batch(), live)
        assert not sink.batches and tr.unacked_flights == 1
        live = np.ones(2, dtype=bool)
        for t in range(1, 5):
            tr.begin_pass(t)
            tr.tick(t, live)
        assert len(sink.batches) == 1 and tr.unacked_flights == 0

    def test_wipe_sender_drops_only_that_peers_flights(self):
        plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=0)
        tr = ReliableTransport(plan, ReliabilityConfig(), Sink())
        live = np.ones(3, dtype=bool)
        tr.begin_pass(0)
        tr.send(0, make_batch(0, 1, n=2), live)
        tr.send(0, make_batch(2, 1, n=5), live)
        assert tr.unacked_updates == 7
        assert tr.wipe_sender(0) == 2
        assert tr.unacked_updates == 5

    def test_ack_drop_forces_suppressed_redelivery(self):
        # Data always arrives; only the first ack is lost.
        plan = FaultPlan(FaultSpec(ack_drop_rate=1.0), seed=0)
        applied = []

        def deliver(batch):
            # Second delivery applies nothing: version dedup.
            applied.extend(copies_of(batch))
            return np.full(len(batch.updates), len(applied) == 1)

        tr = ReliableTransport(plan, ReliabilityConfig(ack_timeout_passes=1), deliver)
        live = np.ones(2, dtype=bool)
        tr.begin_pass(0)
        tr.send(0, make_batch(n=3), live)
        assert tr.unacked_flights == 1  # delivered but ack lost
        # Later acks get through: swap in a clean plan.
        tr.plan = FaultPlan(seed=0)
        for t in range(1, 6):
            tr.begin_pass(t)
            tr.tick(t, live)
        assert tr.unacked_flights == 0
        assert len(applied) == 2
        assert tr.stats.acks_dropped == 1
        assert tr.stats.redeliveries_suppressed == 3


class TestStagnationDetector:
    def test_fires_after_window(self):
        det = StagnationDetector(window=3)
        assert not det.observe(quiescent=True, undelivered=5, delivered_this_pass=0)
        assert not det.observe(quiescent=True, undelivered=5, delivered_this_pass=0)
        assert det.observe(quiescent=True, undelivered=5, delivered_this_pass=0)

    def test_delivery_resets(self):
        det = StagnationDetector(window=2)
        det.observe(quiescent=True, undelivered=5, delivered_this_pass=0)
        assert not det.observe(quiescent=True, undelivered=5, delivered_this_pass=2)
        assert not det.observe(quiescent=True, undelivered=5, delivered_this_pass=0)

    def test_attempts_reset(self):
        # A pass in which the transport is still retrying is not
        # stagnant, even with zero deliveries.
        det = StagnationDetector(window=2)
        det.observe(quiescent=True, undelivered=5, delivered_this_pass=0)
        assert not det.observe(
            quiescent=True, undelivered=5, delivered_this_pass=0, attempts_this_pass=1
        )

    def test_activity_or_empty_never_fires(self):
        det = StagnationDetector(window=1)
        assert not det.observe(quiescent=False, undelivered=5, delivered_this_pass=0)
        assert not det.observe(quiescent=True, undelivered=0, delivered_this_pass=0)

    def test_window_validated(self):
        with pytest.raises(ValueError):
            StagnationDetector(window=0)
