"""The peer node's recompute schedule and the runtime's run guards.

``batch_window`` coalesces a document's arrivals before it recomputes
once; the scheduler must keep visiting a node while recomputes are
pending.  Also covers the guards around a run: a dying peer task, bad
``max_time`` budgets, and the window/recovery exclusion.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.core import pagerank_reference
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.recovery import RecoveryConfig
from repro.runtime import AsyncPeerRuntime, ExponentialLatency, FixedLatency


def make_runtime(docs=200, peers=8, seed=5, **kwargs):
    graph = broder_graph(docs, seed=seed)
    placement = DocumentPlacement.random(docs, peers, seed=seed + 1)
    network = P2PNetwork(peers, placement, build_ring=False)
    kwargs.setdefault("epsilon", 1e-3)
    kwargs.setdefault("seed", seed + 2)
    return AsyncPeerRuntime(graph, network, **kwargs)


class TestBatchWindow:
    def test_window_coalesces_recomputes_and_messages(self):
        reports = {
            window: asyncio.run(
                make_runtime(
                    latency=ExponentialLatency(1.0), batch_window=window
                ).run()
            )
            for window in (0.0, 0.5)
        }
        ref = pagerank_reference(broder_graph(200, seed=5)).ranks
        for report in reports.values():
            assert report.converged
            assert float((np.abs(report.ranks - ref) / ref).max()) < 0.05
        assert reports[0.5].recomputes < reports[0.0].recomputes
        assert reports[0.5].messages < reports[0.0].messages

    def test_at_most_one_pending_recompute_per_document(self):
        runtime = make_runtime(latency=ExponentialLatency(1.0), batch_window=2.0)
        seen = []

        def probe(rounds, rt):
            for node in rt.nodes:
                docs = [doc for _, doc in node._worklist]
                assert len(docs) == len(set(docs)) == node.pending_recomputes
                dues = [due for due, _ in node._worklist]
                assert dues == sorted(dues)
                if docs:
                    # The scheduler sees the pending recompute.
                    assert node.next_due() <= dues[0]
                    assert node.timer_due(dues[0])
                    seen.append(len(docs))

        report = asyncio.run(runtime.run(round_hook=probe))
        assert report.converged
        assert seen, "a positive window must leave recomputes pending"
        assert all(node.pending_recomputes == 0 for node in runtime.nodes)

    def test_pending_recompute_drives_the_clock(self):
        # One hop of latency 1 and a 5-unit window: every arrival's
        # recompute happens 5 units after it, so the run outlasts the
        # zero-window run by at least one window.
        plain = asyncio.run(make_runtime(latency=FixedLatency(1.0)).run())
        windowed = asyncio.run(
            make_runtime(latency=FixedLatency(1.0), batch_window=5.0).run()
        )
        assert plain.converged and windowed.converged
        assert windowed.clock_time >= plain.clock_time + 5.0

    def test_realtime_mode_honours_window(self):
        runtime = make_runtime(
            latency=FixedLatency(0.002), pass_time=0.005, batch_window=0.003
        )
        report = asyncio.run(runtime.run_realtime(timeout=30.0, tick=0.002))
        assert report.quiesced and report.converged
        assert all(node.pending_recomputes == 0 for node in runtime.nodes)

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_bad_window_rejected(self, bad):
        with pytest.raises(ValueError, match="batch_window"):
            make_runtime(batch_window=bad)

    def test_window_with_recovery_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            make_runtime(batch_window=0.5, recovery=RecoveryConfig())


class TestRunGuards:
    def test_dying_peer_task_raises_instead_of_hanging(self):
        # A latency model returning 0 makes the transport raise inside
        # peer 0's first flush; run() must surface it, not wait forever.
        runtime = make_runtime(latency=lambda rng, src, dst: 0.0)

        async def body():
            return await asyncio.wait_for(runtime.run(), timeout=10.0)

        with pytest.raises(ValueError, match="strictly positive"):
            asyncio.run(body())

    def test_dying_peer_task_raises_in_realtime_mode(self):
        # The same dying task under the free-running clock: the tick
        # loop must re-raise it at once, well before its 60 s timeout.
        runtime = make_runtime(latency=lambda rng, src, dst: 0.0)

        async def body():
            return await asyncio.wait_for(
                runtime.run_realtime(timeout=60.0, tick=0.005), timeout=5.0
            )

        with pytest.raises(ValueError, match="strictly positive"):
            asyncio.run(body())

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_bad_max_time_rejected(self, bad):
        with pytest.raises(ValueError, match="max_time"):
            asyncio.run(make_runtime().run(max_time=bad))

    def test_max_time_budget_stops_early(self):
        report = asyncio.run(
            make_runtime(latency=FixedLatency(1.0)).run(max_time=3.0)
        )
        assert not report.quiesced
        assert report.clock_time <= 3.0
