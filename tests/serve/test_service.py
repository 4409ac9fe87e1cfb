"""End-to-end tests of ServeSession (docs/SERVING.md).

Covers the determinism contract (same seed -> same digest; serving is
read-only towards the rank computation), conservation and queue-bound
invariants, overload shedding, closed-loop self-limiting, and the
cache-disabled path."""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.serve import ServeConfig, ServeSession, run_serve
from repro.serve.service import _ARRIVE, _FINISH, _Event

BASE = dict(
    docs=120,
    peers=8,
    seed=0,
    qps=40.0,
    duration=6.0,
    epsilon=1e-3,
    num_distinct=12,
    term_pool_size=30,
)


def _config(**overrides):
    merged = dict(BASE)
    merged.update(overrides)
    return ServeConfig(**merged)


@pytest.fixture(scope="module")
def report():
    return run_serve(_config())


class TestDeterminism:
    def test_same_seed_bitwise_reproducible(self, report):
        again = run_serve(_config())
        assert again.digest == report.digest
        assert again.offered == report.offered
        assert again.records == report.records

    def test_different_seed_differs(self, report):
        other = run_serve(_config(seed=1))
        assert other.digest != report.digest

    def test_serving_is_read_only_towards_ranks(self):
        served = ServeSession(_config())
        served.run()
        control = ServeSession(_config())
        asyncio.run(control.runtime.run())
        assert (
            served.runtime.gather_ranks().tobytes()
            == control.runtime.gather_ranks().tobytes()
        )


class TestInvariants:
    def test_verify_invariants_clean(self, report):
        assert report.verify_invariants(_config()) == []

    def test_conservation(self, report):
        assert report.offered == report.completed + report.dropped
        assert report.offered > 0

    def test_latency_percentiles_ordered(self, report):
        assert 0.0 <= report.latency_p50 <= report.latency_p99
        assert report.latency_p99 <= report.latency_max

    def test_records_match_counters(self, report):
        completed = sum(1 for r in report.records if not r.dropped)
        dropped = sum(1 for r in report.records if r.dropped)
        assert completed == report.completed
        assert dropped == report.dropped

    def test_runtime_converged(self, report):
        assert report.runtime.converged


class TestOverload:
    def test_overload_sheds_within_queue_bound(self):
        config = _config(
            qps=800.0,
            duration=2.0,
            queue_capacity=2,
            cache_ttl=0.0,
            service_time=0.05,
            retry_scale=0.05,
        )
        report = run_serve(config)
        assert report.shed > 0
        assert report.peak_queue_depth <= config.queue_capacity
        assert report.verify_invariants(config) == []
        # Every drop exhausted the full retry budget first.
        for r in report.records:
            if r.dropped:
                assert r.attempts > 1


class TestModes:
    def test_closed_loop_self_limits(self):
        config = _config(loop="closed", clients=3, think_time=0.1, duration=4.0)
        report = run_serve(config)
        assert report.verify_invariants(config) == []
        # At most `clients` queries can ever be in flight, so sheds
        # require capacity < clients; with capacity 8 there are none.
        assert report.shed == 0
        assert report.completed > 0

    def test_closed_loop_sheds_then_drops_pinned(self):
        # One admission slot per peer for twelve clients, with retries
        # too quick to outlast a 50 ms service time: queries shed, some
        # exhaust their retry budget, and each client then thinks and
        # asks again (or retires at the end of the run).
        config = _config(
            loop="closed", clients=12, queue_capacity=1, cache_ttl=0.0,
            retry_scale=0.01, service_time=0.05, duration=4.0,
        )
        report = run_serve(config)
        assert report.verify_invariants(config) == []
        assert (
            report.offered, report.completed, report.shed, report.retries,
            report.dropped,
        ) == (180, 150, 583, 553, 30)
        assert report.digest == (
            "778102c529f380611bd3f619e416d565d4772d60c87a17f0cb1aaa1983962160"
        )

    def test_cache_disabled(self):
        config = _config(cache_ttl=0.0, duration=3.0)
        report = run_serve(config)
        assert report.cache_hits == 0
        assert report.cache_hit_rate == 0.0
        assert report.verify_invariants(config) == []

    def test_cache_enabled_hits_on_skewed_stream(self, report):
        assert report.cache_hits > 0
        assert 0.0 < report.cache_hit_rate <= 1.0


class TestObservability:
    def test_serve_metrics_emitted(self):
        with obs.use_registry() as reg:
            run_serve(_config(duration=3.0))
            snapshot = reg.snapshot()
        assert snapshot["serve.queries_offered"]["value"] > 0
        assert (
            snapshot["serve.queries_completed"]["value"]
            + snapshot["serve.queries_dropped"]["value"]
            == snapshot["serve.queries_offered"]["value"]
        )
        assert snapshot["serve.bytes_on_wire"]["value"] > 0
        assert snapshot["serve.achieved_qps"]["value"] > 0
        for name in (
            "serve.queries_shed", "serve.queries_retried",
            "serve.cache_hits", "serve.cache_misses",
            "serve.cache_invalidations", "serve.rank_refreshes",
            "serve.index_update_messages", "serve.query_latency",
            "serve.dht_hops", "serve.queue_depth_peak",
            "serve.shed_rate", "serve.cache_hit_rate",
        ):
            assert name in snapshot


class TestLifecycle:
    def test_single_shot(self):
        session = ServeSession(_config(duration=1.0, qps=5.0))
        session.run()
        with pytest.raises(RuntimeError):
            session.run()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(loop="bogus")
        with pytest.raises(ValueError):
            _config(qps=0.0)
        with pytest.raises(ValueError):
            _config(cache_ttl=-1.0)
        with pytest.raises(ValueError):
            _config(refresh_every=0)

    def test_rank_refresh_charges_index_updates(self, report):
        # Initial ranks are uniform; convergence forces at least one
        # refresh past the staleness bound.
        assert report.rank_refreshes >= 1
        assert report.index_update_messages > 0

    def test_report_digest_is_hex_sha256(self, report):
        assert len(report.digest) == 64
        int(report.digest, 16)


class TestEventOrder:
    """The event heap holds ``(time, kind, seq, event)`` tuples: time
    first, FINISH before ARRIVE at equal times, then schedule order."""

    @staticmethod
    def _drained(session, now):
        seen = []
        session._handle_arrival = lambda e: seen.append(("arrive", e.seq))
        session._handle_finish = lambda e: seen.append(("finish", e.seq))
        session._drain(now)
        return seen

    def _push(self, session, time, kind):
        seq = session._next_seq()
        session._push(_Event(time=time, kind=kind, seq=seq))
        return seq

    def test_finish_drains_before_arrive_at_equal_time(self):
        session = ServeSession(_config())
        arrive = self._push(session, 1.0, _ARRIVE)
        finish = self._push(session, 1.0, _FINISH)
        assert self._drained(session, 1.0) == [("finish", finish), ("arrive", arrive)]

    def test_equal_time_and_kind_drain_in_schedule_order(self):
        session = ServeSession(_config())
        late = self._push(session, 2.0, _ARRIVE)
        first = [self._push(session, 1.0, _ARRIVE) for _ in range(5)]
        finishes = [self._push(session, 1.0, _FINISH) for _ in range(3)]
        assert self._drained(session, 1.5) == (
            [("finish", s) for s in finishes] + [("arrive", s) for s in first]
        )
        # Events later than ``now`` stay queued.
        assert self._drained(session, 2.0) == [("arrive", late)]
        assert session._events == []

    def test_events_are_never_compared(self):
        assert "__lt__" not in vars(_Event)
        with pytest.raises(TypeError):
            _Event(time=0.0, kind=_FINISH, seq=1) < _Event(time=0.0, kind=_FINISH, seq=2)
