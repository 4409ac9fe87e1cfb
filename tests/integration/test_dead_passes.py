"""All-peers-down passes: skipped, counted, and capped in every engine
and parallel backend."""

import numpy as np
import pytest

from repro import obs
from repro.core.distributed import ChaoticPagerank
from repro.graphs import gnp_random_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.parallel import ParallelPagerank
from repro.simulation.engine import P2PPagerankSimulation

DOCS = 60
PEERS = 6


class Blackout:
    """All peers down for the first ``dark`` passes, everyone up after."""

    def __init__(self, num_peers, dark):
        self.num_peers = num_peers
        self.dark = dark

    def sample(self, t):
        if t < self.dark:
            return np.zeros(self.num_peers, dtype=bool)
        return np.ones(self.num_peers, dtype=bool)


class PermanentBlackout:
    def __init__(self, num_peers):
        self.num_peers = num_peers

    def sample(self, t):
        return np.zeros(self.num_peers, dtype=bool)


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(DOCS, 0.1, seed=2)


def make_net():
    placement = DocumentPlacement.random(DOCS, PEERS, seed=1)
    return P2PNetwork(PEERS, placement, build_ring=False)


class TestSimulatorDeadPasses:
    def test_blackout_is_skipped_not_converged(self, graph):
        # Three dead passes must not trick the quiescence check into
        # declaring convergence; the run resumes and finishes normally.
        with obs.use_registry() as reg:
            report = P2PPagerankSimulation(graph, make_net(), epsilon=1e-3).run(
                availability=Blackout(PEERS, dark=3)
            )
            snap = reg.snapshot()
        assert report.converged
        assert report.passes > 3
        assert snap["sim.dead_passes"]["value"] == 3
        dead = [s for s in report.history if s.live_peers == 0]
        assert len(dead) == 3
        assert all(s.messages == 0 and s.computed_documents == 0 for s in dead)

    def test_permanent_blackout_raises_at_cap(self, graph):
        sim = P2PPagerankSimulation(graph, make_net(), epsilon=1e-3)
        with pytest.raises(RuntimeError, match="no live peers for 5 consecutive"):
            sim.run(availability=PermanentBlackout(PEERS), max_dead_passes=5)

    def test_max_dead_passes_validated(self, graph):
        sim = P2PPagerankSimulation(graph, make_net(), epsilon=1e-3)
        with pytest.raises(ValueError, match="max_dead_passes"):
            sim.run(availability=Blackout(PEERS, dark=1), max_dead_passes=0)


ENGINES = {
    "serial": lambda graph, assign: ChaoticPagerank(graph, assign, epsilon=1e-4),
    "in-process": lambda graph, assign: ParallelPagerank(
        graph, assign, shards=2, epsilon=1e-4, backend="in-process"
    ),
    "process": lambda graph, assign: ParallelPagerank(
        graph, assign, workers=2, shards=3, epsilon=1e-4, backend="process"
    ),
}


def make_engine(kind, graph):
    assign = DocumentPlacement.random(DOCS, PEERS, seed=1).assignment
    return ENGINES[kind](graph, assign)


class TestVectorizedDeadPasses:
    """The serial engine; each subclass reruns every case on one
    ``ParallelPagerank`` backend."""

    kind = "serial"

    def test_blackout_is_skipped_not_converged(self, graph):
        with obs.use_registry() as reg:
            report = make_engine(self.kind, graph).run(
                availability=Blackout(PEERS, dark=4)
            )
            snap = reg.snapshot()
        assert report.converged
        assert report.passes > 4
        if self.kind == "serial":
            assert snap["core.dead_passes"]["value"] == 4
        dead = [s for s in report.history if s.live_peers == 0]
        assert len(dead) == 4
        assert all(s.messages == 0 for s in dead)

    def test_blackout_run_equals_serial_bitwise(self, graph):
        # Every party skips the same dead passes, so the sharded runs
        # replay the serial one exactly.
        serial = make_engine("serial", graph).run(availability=Blackout(PEERS, dark=4))
        report = make_engine(self.kind, graph).run(
            availability=Blackout(PEERS, dark=4)
        )
        assert np.array_equal(report.ranks, serial.ranks)
        assert report.passes == serial.passes
        assert report.total_messages == serial.total_messages

    def test_blackout_matches_always_up_result(self, graph):
        # Dead passes delay the run but must not change the fixed point.
        base = make_engine(self.kind, graph).run()
        delayed = make_engine(self.kind, graph).run(
            availability=Blackout(PEERS, dark=2)
        )
        assert np.array_equal(base.ranks, delayed.ranks)

    def test_permanent_blackout_raises_at_cap(self, graph):
        # Workers stand down quietly at the cap; only the cap's own
        # error reaches the caller, never a worker failure report.
        engine = make_engine(self.kind, graph)
        with pytest.raises(RuntimeError) as exc:
            engine.run(availability=PermanentBlackout(PEERS), max_dead_passes=4)
        assert "no live peers for 4 consecutive" in str(exc.value)
        assert "worker" not in str(exc.value)

    def test_max_dead_passes_validated(self, graph):
        engine = make_engine(self.kind, graph)
        with pytest.raises(ValueError, match="max_dead_passes"):
            engine.run(availability=Blackout(PEERS, dark=1), max_dead_passes=0)


class TestInProcessDeadPasses(TestVectorizedDeadPasses):
    kind = "in-process"


class TestProcessDeadPasses(TestVectorizedDeadPasses):
    kind = "process"
