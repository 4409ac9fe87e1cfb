"""Tests of :mod:`repro.scenario`: one seeded §4.2 run and its build."""

import argparse
from dataclasses import replace

import numpy as np
import pytest

from repro.faults.plan import FaultSpec
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, FixedFractionChurn
from repro.p2p.routing import RoutedDelivery
from repro.runtime import OnOffSchedule
from repro.scenario import Scenario, build

SMALL = Scenario(docs=200, peers=6, seed=5)


class TestValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(engine="bogus"),
            dict(availability=0.0),
            dict(availability=1.5),
            dict(delivery="bogus", engine="simulator"),
            dict(delivery="routed"),
        ],
    )
    def test_rejects(self, fields):
        with pytest.raises(ValueError):
            replace(SMALL, **fields)

    def test_reuse_needs_the_same_inputs(self):
        built = build(SMALL)
        with pytest.raises(ValueError):
            build(replace(SMALL, placement_offset=0), reuse=built)


class TestStreams:
    def test_default_offsets(self):
        built = build(replace(SMALL, availability=0.75, faults=FaultSpec(drop_rate=0.1)))
        graph = broder_graph(200, seed=5)
        np.testing.assert_array_equal(built.graph.indices, graph.indices)
        np.testing.assert_array_equal(
            built.network.placement.assignment,
            DocumentPlacement.random(200, 6, seed=6).assignment,
        )
        churn = FixedFractionChurn(6, 0.75, seed=7)
        for t in range(10):
            np.testing.assert_array_equal(built.availability.sample(t), churn.sample(t))

    def test_named_offsets_move_each_stream(self):
        base = build(SMALL)
        moved = build(replace(SMALL, graph_offset=3, placement_offset=4))
        np.testing.assert_array_equal(
            moved.graph.indices, broder_graph(200, seed=8).indices
        )
        np.testing.assert_array_equal(
            moved.network.placement.assignment,
            DocumentPlacement.random(200, 6, seed=9).assignment,
        )
        assert not np.array_equal(
            moved.network.placement.assignment, base.network.placement.assignment
        )

    def test_runtime_churn_is_on_off_at_the_same_availability(self):
        built = build(replace(SMALL, engine="runtime", availability=0.75))
        spells = built.availability
        assert isinstance(spells, OnOffSchedule)
        assert (spells.mean_up, spells.mean_down) == (30.0, 10.0)
        reference = OnOffSchedule(6, mean_up=30.0, mean_down=10.0, seed=7)
        assert spells._downtimes == reference._downtimes

    def test_reuse_shares_graph_and_network(self):
        first = build(replace(SMALL, engine="simulator"))
        again = build(
            replace(SMALL, engine="simulator", faults=FaultSpec(drop_rate=0.2)),
            reuse=first,
        )
        assert again.graph is first.graph and again.network is first.network
        assert again.engine is not first.engine

    def test_delivery_builds_the_ring(self):
        built = build(replace(SMALL, engine="simulator", delivery="routed"))
        assert isinstance(built.engine.delivery_policy, RoutedDelivery)
        assert built.network.ring is not None
        assert build(SMALL).network.ring is None


@pytest.mark.parametrize("engine", ["vectorized", "parallel", "simulator", "runtime"])
def test_every_engine_solves_to_the_same_fixed_point(engine):
    built = build(replace(SMALL, engine=engine, epsilon=1e-6))
    report = built.solve()
    assert report.converged
    reference = build(replace(SMALL, epsilon=1e-6)).solve().ranks
    np.testing.assert_allclose(report.ranks, reference, rtol=1e-3)


def test_from_args_reads_the_seeded_flags():
    args = argparse.Namespace(
        docs=100, peers=4, epsilon=1e-3, damping=0.8, seed=2, loss=0.1, churn=True
    )
    scenario = Scenario.from_args(args, engine="runtime")
    assert scenario == Scenario(
        docs=100, peers=4, engine="runtime", epsilon=1e-3, damping=0.8,
        faults=FaultSpec(drop_rate=0.1), availability=0.75, seed=2,
    )
    plain = argparse.Namespace(docs=100, peers=4, epsilon=1e-3, seed=2, availability=2.0)
    assert Scenario.from_args(plain).availability == 1.0
