"""Integration: both engines converge under injected faults.

The ISSUE's acceptance criteria live here: byte-identity with faults
disabled, convergence to the centralized reference under 20 % loss plus
two mid-run crashes, graceful stagnation abort on a black-holed peer,
and a deterministic `repro faults` table.
"""

import numpy as np
import pytest

from repro.core.distributed import ChaoticPagerank
from repro.core.pagerank import pagerank_reference
from repro.faults import (
    FaultExperimentConfig,
    FaultExperimentResult,
    FaultPlan,
    FaultSpec,
    FaultTrial,
    Partition,
    ReliabilityConfig,
    run_fault_experiment,
)
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.simulation.engine import P2PPagerankSimulation

DOCS = 120
PEERS = 8


@pytest.fixture(scope="module")
def graph():
    return broder_graph(DOCS, seed=3)


@pytest.fixture(scope="module")
def reference(graph):
    return pagerank_reference(graph).ranks


def make_net():
    placement = DocumentPlacement.random(DOCS, PEERS, seed=1)
    return P2PNetwork(PEERS, placement, build_ring=False)


def l1_error(ranks, reference):
    return float(np.abs(ranks - reference).sum() / np.abs(reference).sum())


class TestNoFaultByteIdentity:
    """faults=None and a zero-fault plan must not perturb results."""

    def test_simulator_none_vs_noop_plan(self, graph):
        base = P2PPagerankSimulation(graph, make_net(), epsilon=1e-3).run()
        noop = P2PPagerankSimulation(
            graph, make_net(), epsilon=1e-3, faults=FaultPlan(seed=9)
        ).run()
        assert noop.ranks.tobytes() == base.ranks.tobytes()
        assert noop.total_messages == base.total_messages
        assert noop.passes == base.passes

    def test_vectorized_none_vs_noop_plan(self, graph):
        assign = DocumentPlacement.random(DOCS, PEERS, seed=1).assignment
        base = ChaoticPagerank(graph, assign, epsilon=1e-4).run()
        noop = ChaoticPagerank(graph, assign, epsilon=1e-4).run(
            fault_plan=FaultPlan(seed=9)
        )
        assert noop.ranks.tobytes() == base.ranks.tobytes()
        assert noop.total_messages == base.total_messages


class TestSimulatorUnderFaults:
    SPEC = FaultSpec(
        drop_rate=0.20,
        duplicate_rate=0.05,
        delay_rate=0.10,
        crashes=((3, 2), (6, 5)),
    )

    def test_converges_within_tolerance(self, graph, reference):
        sim = P2PPagerankSimulation(
            graph, make_net(), epsilon=1e-3, faults=FaultPlan(self.SPEC, seed=11)
        )
        report = sim.run()
        assert report.converged
        assert report.diagnostics is None
        assert l1_error(report.ranks, reference) < 0.02
        stats = sim.transport.stats
        assert stats.dropped_updates > 0
        assert stats.retries > 0
        assert stats.crashes == 2

    def test_deterministic_replay(self, graph):
        def run():
            return P2PPagerankSimulation(
                graph, make_net(), epsilon=1e-3, faults=FaultPlan(self.SPEC, seed=11)
            ).run()

        a, b = run(), run()
        assert np.array_equal(a.ranks, b.ranks)
        assert a.total_messages == b.total_messages
        assert a.passes == b.passes

    def test_duplicates_and_delays_only(self, graph, reference):
        spec = FaultSpec(duplicate_rate=0.3, delay_rate=0.4, max_delay_passes=4)
        sim = P2PPagerankSimulation(
            graph, make_net(), epsilon=1e-3, faults=FaultPlan(spec, seed=5)
        )
        report = sim.run()
        assert report.converged
        assert l1_error(report.ranks, reference) < 0.02
        assert sim.transport.stats.duplicated_updates > 0
        assert sim.transport.stats.delayed_updates > 0
        # Redundant copies were absorbed by version dedup, not applied.
        assert sim.transport.stats.redeliveries_suppressed > 0

    def test_crash_wipes_volatile_state(self, graph):
        # A crashed peer must lose outbox/deferred/flights — reflected
        # in the crash_state_loss accounting.
        spec = FaultSpec(drop_rate=0.3, crashes=((2, 1),))
        sim = P2PPagerankSimulation(
            graph, make_net(), epsilon=1e-3, faults=FaultPlan(spec, seed=4)
        )
        report = sim.run()
        assert report.converged
        assert sim.transport.stats.crashes == 1
        assert sim.transport.stats.crash_state_loss > 0

    def test_validation(self, graph):
        with pytest.raises(ValueError, match="requires a fault plan"):
            P2PPagerankSimulation(
                graph, make_net(), epsilon=1e-3, reliability=ReliabilityConfig()
            )
        with pytest.raises(ValueError, match="mutually exclusive"):
            P2PPagerankSimulation(
                graph,
                P2PNetwork(
                    PEERS, DocumentPlacement.random(DOCS, PEERS, seed=1)
                ),
                epsilon=1e-3,
                faults=FaultPlan(seed=0),
                rehoming_after=3,
            )
        with pytest.raises(ValueError, match="stagnation_window"):
            P2PPagerankSimulation(
                graph, make_net(), epsilon=1e-3,
                faults=FaultPlan(seed=0), stagnation_window=0,
            )


class TestStagnationAbort:
    def test_black_holed_peer_aborts_with_diagnostics(self, graph):
        plan = FaultPlan(FaultSpec(partitions=(Partition(peer_a=3),)), seed=2)
        report = P2PPagerankSimulation(
            graph, make_net(), epsilon=1e-3, faults=plan
        ).run(max_passes=500)
        assert not report.converged
        assert report.passes < 500  # aborted, not budget-exhausted
        diag = report.diagnostics
        assert diag is not None
        assert diag.black_holed_peers == (3,)
        assert diag.abandoned_updates + diag.unacked_updates > 0
        assert diag.undelivered_mass > 0
        assert any(3 in link for link, _ in diag.black_holed_links)
        assert "black-holed links" in diag.describe()

    def test_transient_partition_recovers(self, graph, reference):
        plan = FaultPlan(
            FaultSpec(partitions=(Partition(peer_a=3, start_pass=1, end_pass=6),)),
            seed=2,
        )
        report = P2PPagerankSimulation(
            graph, make_net(), epsilon=1e-3, faults=plan
        ).run(max_passes=500)
        assert report.converged
        assert report.diagnostics is None
        assert l1_error(report.ranks, reference) < 0.02


class TestVectorizedUnderFaults:
    def test_lossy_run_converges_exactly(self, graph):
        # The vectorized model retries every dropped delivery until it
        # lands, so the run still reaches an epsilon-stable fixed point
        # close to the lossless one; only the trajectory (messages,
        # possibly passes) changes.
        assign = DocumentPlacement.random(DOCS, PEERS, seed=1).assignment
        base = ChaoticPagerank(graph, assign, epsilon=1e-4).run()
        lossy = ChaoticPagerank(graph, assign, epsilon=1e-4).run(
            fault_plan=FaultPlan(FaultSpec(drop_rate=0.2), seed=7)
        )
        assert lossy.converged
        assert l1_error(lossy.ranks, base.ranks) < 0.02

    def test_deterministic_replay(self, graph):
        assign = DocumentPlacement.random(DOCS, PEERS, seed=1).assignment

        def run():
            return ChaoticPagerank(graph, assign, epsilon=1e-4).run(
                fault_plan=FaultPlan(FaultSpec(drop_rate=0.2), seed=7)
            )

        a, b = run(), run()
        assert np.array_equal(a.ranks, b.ranks)
        assert a.total_messages == b.total_messages


class TestFaultExperiment:
    CONFIG = FaultExperimentConfig(
        num_documents=100,
        num_peers=8,
        loss_rates=(0.0, 0.2),
        max_passes=500,
        seed=6,
    )

    def test_all_rows_converge_and_rank_error_bounded(self):
        result = run_fault_experiment(self.CONFIG)
        assert len(result.trials) == 2
        for trial in result.trials:
            assert trial.converged
            assert trial.l1_error < 0.02
            assert trial.crashes == 2
        # More loss costs more retries, never fewer.
        assert result.trials[1].retries >= result.trials[0].retries

    def test_table_says_why_each_row_stopped(self):
        result = run_fault_experiment(self.CONFIG)
        assert [t.stop for t in result.trials] == ["converged", "converged"]
        header = result.render().splitlines()
        assert any("abandoned" in line and "stop" in line for line in header)

    def test_permanent_partition_prints_stagnation(self, graph):
        plan = FaultPlan(FaultSpec(partitions=(Partition(peer_a=3),)), seed=2)
        sim = P2PPagerankSimulation(graph, make_net(), epsilon=1e-3, faults=plan)
        report = sim.run(max_passes=500)
        trial = FaultTrial.from_run(0.0, sim, report, 0.0)
        assert trial.stop == "stagnation"
        assert trial.abandoned == sim.transport.stats.abandoned_updates > 0
        table = FaultExperimentResult(self.CONFIG, (trial,)).render()
        assert "stagnation" in table

    def test_pass_cap_stop(self, graph):
        plan = FaultPlan(FaultSpec(drop_rate=0.2), seed=2)
        sim = P2PPagerankSimulation(graph, make_net(), epsilon=1e-3, faults=plan)
        report = sim.run(max_passes=3)
        assert FaultTrial.from_run(0.2, sim, report, 0.0).stop == "pass cap"

    def test_table_is_deterministic(self):
        a = run_fault_experiment(self.CONFIG).render()
        b = run_fault_experiment(self.CONFIG).render()
        assert a == b
        assert "loss" in a and "20%" in a
