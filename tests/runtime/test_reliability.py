"""Unit tests for the clock-driven flight tracker."""

import pytest

from repro.faults.transport import ReliabilityConfig
from repro.p2p.messages import BatchAck, MessageBatch, PagerankUpdate
from repro.runtime.reliability import FlightTracker


def batch(n=3) -> MessageBatch:
    return MessageBatch(
        sender_peer=0,
        receiver_peer=1,
        updates=[
            PagerankUpdate(target_doc=i, source_doc=9, value=1.0, version=0)
            for i in range(n)
        ],
    )


def ack(fid: int) -> BatchAck:
    return BatchAck(flight_id=fid, sender_peer=1, receiver_peer=0)


class TestFlightTracker:
    def test_launch_and_ack(self):
        tracker = FlightTracker(ReliabilityConfig())
        flight = tracker.launch(batch(), now=0.0)
        assert tracker.unacked_flights == 1
        assert tracker.unacked_updates == 3
        assert tracker.on_ack(ack(flight.flight_id))
        assert tracker.unacked_flights == 0
        # Duplicate ack for a cleared flight is reported, not an error.
        assert not tracker.on_ack(ack(flight.flight_id))

    def test_flight_ids_unique_and_ascending(self):
        tracker = FlightTracker(ReliabilityConfig())
        fids = [tracker.launch(batch(), now=0.0).flight_id for _ in range(4)]
        assert fids == [0, 1, 2, 3]

    def test_retry_backoff_matches_config_scaled_by_pass_time(self):
        config = ReliabilityConfig(ack_timeout_passes=2, backoff_factor=2.0)
        tracker = FlightTracker(config, pass_time=10.0)
        flight = tracker.launch(batch(), now=0.0)
        assert flight.next_retry == config.retry_delay(1) * 10.0
        due = tracker.due(flight.next_retry)
        assert [f.flight_id for f in due] == [flight.flight_id]
        assert flight.attempts == 2
        assert flight.next_retry == pytest.approx(
            config.retry_delay(1) * 10.0 + config.retry_delay(2) * 10.0
        )
        assert tracker.retries == 1

    def test_not_due_before_deadline(self):
        tracker = FlightTracker(ReliabilityConfig())
        flight = tracker.launch(batch(), now=0.0)
        assert tracker.due(flight.next_retry - 0.01) == []
        assert tracker.retries == 0

    def test_abandonment_over_retry_budget(self):
        config = ReliabilityConfig(max_retries=2)
        tracker = FlightTracker(config)
        tracker.launch(batch(), now=0.0)
        now = 0.0
        while tracker.unacked_flights:
            now = tracker.next_due()
            tracker.due(now)
        assert tracker.retries == config.max_retries
        assert tracker.abandoned_updates == 3
        assert tracker.abandoned_mass == pytest.approx(3.0)
        assert tracker.undeliverable_updates == 3
        assert tracker.next_due() is None

    def test_deadlines_skip_acked_and_come_due_by_flight_id(self):
        # Later flights can fall due first; due() still answers in
        # ascending flight id, and acked or wiped flights never surface.
        tracker = FlightTracker(ReliabilityConfig())
        late = tracker.launch(batch(), now=5.0)
        early = [tracker.launch(batch(), now=t) for t in (0.0, 1.0, 2.0)]
        tracker.on_ack(ack(early[0].flight_id))
        assert tracker.next_due() == early[1].next_retry
        due = tracker.due(late.next_retry)
        assert [f.flight_id for f in due] == [
            late.flight_id, early[1].flight_id, early[2].flight_id
        ]
        assert tracker.next_due() == min(f.next_retry for f in due)
        tracker.wipe()
        assert tracker.next_due() is None
        assert tracker.due(1e9) == []

    def test_bad_pass_time_rejected(self):
        with pytest.raises(ValueError, match="pass_time"):
            FlightTracker(ReliabilityConfig(), pass_time=0.0)
