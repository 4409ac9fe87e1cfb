"""The shard pass step's shared argument handling, and the budget and
availability checks both engines take from it."""

import numpy as np
import pytest

from repro.core import ChaoticPagerank
from repro.core.shard import (
    AllLive,
    build_shard_plan,
    initial_rank_vector,
    live_mask,
    resolve_assignment,
    starvation_error,
)
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.parallel import ParallelPagerank
from repro.simulation.engine import P2PPagerankSimulation

DOCS = 120
PEERS = 6


@pytest.fixture(scope="module")
def workload():
    graph = broder_graph(DOCS, seed=3)
    return graph, DocumentPlacement.random(DOCS, PEERS, seed=4).assignment


def _engines(workload):
    graph, assignment = workload
    return [
        ChaoticPagerank(graph, assignment),
        ParallelPagerank(graph, assignment, backend="in-process"),
        ParallelPagerank(graph, assignment, workers=2, backend="process"),
        P2PPagerankSimulation(graph, P2PNetwork(
            PEERS, DocumentPlacement(assignment, PEERS), build_ring=False
        )),
    ]


@pytest.mark.parametrize("max_passes", [0, -3])
def test_every_engine_rejects_empty_pass_budget(workload, max_passes):
    """A budget below one pass is an error on every engine and backend,
    with the same message."""
    for engine in _engines(workload):
        with pytest.raises(ValueError, match="max_passes must be >= 1"):
            engine.run(max_passes=max_passes)


def test_every_engine_rejects_bad_availability_shape(workload):
    class WrongShape:
        def sample(self, t):
            return np.ones(PEERS + 1, dtype=bool)

    for engine in _engines(workload):
        with pytest.raises(ValueError, match="availability.sample must return"):
            engine.run(availability=WrongShape())


@pytest.mark.parametrize(
    "geometry, message",
    [
        ({"shards": 0}, "shards must be in"),
        ({"shards": PEERS + 1}, "shards must be in"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"backend": "threads"}, "backend must be one of"),
    ],
)
def test_parallel_engine_rejects_bad_geometry(workload, geometry, message):
    graph, assignment = workload
    with pytest.raises(ValueError, match=message):
        ParallelPagerank(graph, assignment, **geometry)


class TestResolveAssignment:
    def test_default_places_each_document_on_its_own_peer(self):
        assignment, peers = resolve_assignment(4, None, None)
        assert assignment.tolist() == [0, 1, 2, 3]
        assert peers == 4

    def test_infers_and_accepts_explicit_peer_count(self):
        assignment = np.array([0, 2, 2])
        assert resolve_assignment(3, assignment, None)[1] == 3
        assert resolve_assignment(3, assignment, 7)[1] == 7

    @pytest.mark.parametrize(
        "assignment, peers, message",
        [
            (np.array([0, 1]), None, "shape"),
            (np.array([0, -1, 0]), None, "non-negative"),
            (np.array([0, 5, 0]), 3, "too small"),
        ],
    )
    def test_rejects_bad_placements(self, assignment, peers, message):
        with pytest.raises(ValueError, match=message):
            resolve_assignment(3, assignment, peers)

    def test_empty_graph(self):
        assignment, peers = resolve_assignment(0, np.zeros(0), None)
        assert assignment.size == 0 and peers == 0


class TestInitialRanks:
    def test_default_is_a_fresh_constant_vector(self):
        assert initial_rank_vector(3, 1.0, None).tolist() == [1.0, 1.0, 1.0]

    def test_warm_start_is_copied(self):
        warm = np.array([0.5, 2.0])
        out = initial_rank_vector(2, 1.0, warm)
        out[0] = 9.0
        assert warm[0] == 0.5

    @pytest.mark.parametrize("warm", [np.ones(3), np.array([1.0, 0.0])])
    def test_rejects_bad_warm_start(self, warm):
        with pytest.raises(ValueError):
            initial_rank_vector(2, 1.0, warm)


def test_all_live_and_live_mask():
    live = live_mask(AllLive(3), 0, 3)
    assert live.dtype == bool and live.all()
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        live_mask(AllLive(3), 0, 4)


def test_starvation_error_names_its_cause():
    err = starvation_error(5, 9)
    assert isinstance(err, RuntimeError)
    assert "no live peers for 5 consecutive passes (pass 9)" in str(err)


def test_shard_plan_partitions_every_document_once(workload):
    _, assignment = workload
    plan = build_shard_plan(assignment, PEERS, 4)
    rows = np.concatenate(plan.rows)
    assert np.array_equal(np.sort(rows), np.arange(DOCS))
    assert plan.row_offsets[-1] == DOCS
