"""Differential lockdown of the single chaotic pass implementation.

:class:`~repro.core.ChaoticPagerank` runs the one pass step
(:mod:`repro.core.shard`) over one whole-graph shard, with reverse-CSR
kernels and frontier-selective pulls.  It must be **byte identical** to
the independent per-edge oracle in ``edge_oracle.py``, which pulls
every row densely every pass: same seeds in, same rank bits out, same
pass counts, same messages and bytes on the wire, and the same
per-pass statistics history — on the static path, under churn, and
under churn plus injected loss, with the uniform teleport or a
preference vector.  The protocol simulator's per-peer
compute path is held to the same oracle.  Any accumulation-order,
gating or store-and-resend drift fails loudly.
"""

import numpy as np
import pytest
from edge_oracle import EdgeWorkspace, reference_pagerank

import repro.core.distributed as distributed
from repro.core import ChaoticPagerank, CSRWorkspace
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, FixedFractionChurn, P2PNetwork
from repro.p2p.messages import MESSAGE_SIZE_BYTES
from repro.simulation import P2PPagerankSimulation

SEEDS = range(20)
SIZES = (120, 400, 900)
EPSILON = 1e-4


def _workload(seed, size, peers=None):
    graph = broder_graph(size, seed=seed)
    peers = peers or max(4, size // 30)
    placement = DocumentPlacement.random(size, peers, seed=seed + 1)
    return graph, placement.assignment, peers


def _preference(seed, size):
    """A sparse, unnormalized teleport preference vector."""
    rng = np.random.default_rng(seed + 100)
    v = rng.uniform(0.0, 5.0, size)
    v[rng.random(size) < 0.7] = 0.0
    v[seed % size] += 1.0
    return v


def _both(
    graph, assignment, peers, *, churn_seed=None, loss_seed=None,
    preference=None,
):
    """Run the engine and the oracle on identically seeded inputs."""

    def inputs():
        availability = (
            FixedFractionChurn(peers, 0.75, seed=churn_seed)
            if churn_seed is not None else None
        )
        plan = (
            FaultPlan(FaultSpec(drop_rate=0.2), seed=loss_seed)
            if loss_seed is not None else None
        )
        return availability, plan

    availability, plan = inputs()
    engine = ChaoticPagerank(
        graph, assignment, num_peers=peers, epsilon=EPSILON,
        preference=preference,
    ).run(availability=availability, fault_plan=plan)
    availability, plan = inputs()
    oracle = reference_pagerank(
        graph, assignment, peers, epsilon=EPSILON,
        availability=availability, fault_plan=plan, preference=preference,
    )
    return engine, oracle


def _assert_identical(engine, oracle):
    assert np.array_equal(engine.ranks, oracle.ranks), "rank bits diverged"
    assert engine.passes == oracle.passes
    assert engine.converged == oracle.converged
    assert engine.total_messages == oracle.total_messages
    assert (
        engine.total_messages * MESSAGE_SIZE_BYTES
        == oracle.total_messages * MESSAGE_SIZE_BYTES
    )
    assert list(engine.history) == oracle.history


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_backends_byte_identical(seed, size):
    """Static path: the frontier-selective CSR engine equals the dense
    per-edge oracle bit for bit, pass for pass."""
    _assert_identical(*_both(*_workload(seed, size)))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_oracle_under_churn_and_loss(seed, size):
    """75 % availability plus 20 % injected loss: resend, deliver,
    defer and park-on-loss match the oracle, draw for draw."""
    engine, oracle = _both(
        *_workload(seed, size), churn_seed=seed + 2, loss_seed=seed + 3
    )
    assert engine.converged
    _assert_identical(engine, oracle)


@pytest.mark.parametrize("seed", range(6))
def test_engine_backends_identical_under_churn(seed):
    """Byte-identity must survive the churn path (availability < 1)."""
    _assert_identical(
        *_both(*_workload(seed, 400, peers=16), churn_seed=seed + 2)
    )


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", range(5))
def test_personalized_engine_matches_oracle(seed, size):
    """Static path with a teleport preference vector: the shift rides
    on the dense and the frontier pulls alike, bit for bit."""
    graph, assignment, peers = _workload(seed, size)
    engine, oracle = _both(
        graph, assignment, peers, preference=_preference(seed, size)
    )
    assert engine.converged
    _assert_identical(engine, oracle)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", range(5))
def test_personalized_engine_matches_oracle_under_churn_and_loss(seed, size):
    """75 % availability plus 20 % loss with a teleport preference
    vector: the churn step's pull carries the same shift."""
    graph, assignment, peers = _workload(seed, size)
    engine, oracle = _both(
        graph, assignment, peers, churn_seed=seed + 2, loss_seed=seed + 3,
        preference=_preference(seed, size),
    )
    assert engine.converged
    _assert_identical(engine, oracle)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", range(8))
def test_simulator_backends_byte_identical(seed, size):
    """The protocol simulator's per-peer CSR compute path against the
    per-edge oracle: rank bits, passes, and the update messages and
    bytes on the wire."""
    graph, assignment, peers = _workload(seed, size, peers=12)
    placement = DocumentPlacement(assignment, peers)
    network = P2PNetwork(peers, placement, build_ring=False)
    sim = P2PPagerankSimulation(graph, network, epsilon=EPSILON)
    report = sim.run(keep_history=False, max_passes=5_000)
    oracle = reference_pagerank(graph, assignment, peers, epsilon=EPSILON)

    assert np.array_equal(report.ranks, oracle.ranks), "rank bits diverged"
    assert report.passes == oracle.passes
    assert sim.traffic.update_messages == oracle.total_messages
    assert sim.traffic.bytes_transferred == oracle.total_messages * MESSAGE_SIZE_BYTES


@pytest.mark.parametrize("seed", range(5))
def test_csr_pull_matches_edge_pull_bitwise(seed):
    """One pull pass: reverse-CSR bincount accumulation equals the
    forward-edge bincount accumulation bit for bit, and a row subset
    (:meth:`CSRWorkspace.restrict`) reproduces the same bits."""
    graph = broder_graph(300, seed=seed)
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.1, 2.0, size=graph.num_nodes)
    edge = EdgeWorkspace.from_graph(graph)
    csr = CSRWorkspace.from_graph(graph)
    out_edge = np.empty_like(values)
    out_csr = np.empty_like(values)
    edge.pull(values, 0.85, out=out_edge)
    csr.pull(values, 0.85, out=out_csr)
    assert np.array_equal(out_edge, out_csr)
    # Selective rows reproduce the same bits as the dense pass.
    rows = np.unique(rng.integers(0, graph.num_nodes, size=40))
    assert np.array_equal(csr.pull_rows(values[csr.src], 0.85, rows), out_csr[rows])
    # So does a workspace restricted to those rows, on every kernel.
    sub = csr.restrict(rows)
    assert np.array_equal(sub.pull(values, 0.85), out_csr[rows])
    local = np.arange(0, rows.size, 3)
    assert np.array_equal(sub.pull_rows(values[sub.src], 0.85, local), out_csr[rows[local]])
    edge_values = rng.uniform(0.1, 2.0, size=edge.src.size)
    whole = edge.pull_edges(edge_values, 0.85)
    on_rows = np.isin(edge.dst, rows)
    assert np.array_equal(
        sub.pull_edges(edge_values[on_rows], 0.85), whole[rows]
    )


@pytest.mark.parametrize("seed", range(5))
def test_pull_rows_matches_pull_edges_bitwise(seed):
    """The selective per-edge pull equals the dense per-edge pull on the
    selected rows bit for bit, on a whole-graph workspace and on a
    restricted one (whose ``rperm`` indexes its own edges)."""
    graph = broder_graph(300, seed=seed)
    rng = np.random.default_rng(seed)
    csr = CSRWorkspace.from_graph(graph)
    rows = np.unique(rng.integers(0, graph.num_nodes, size=60))
    for ws in (csr, csr.restrict(rows)):
        edge_values = rng.uniform(0.1, 2.0, size=ws.src.size)
        dense = ws.pull_edges(edge_values, 0.85)
        for picked in (np.arange(0, ws.num_nodes, 4), np.arange(ws.num_nodes)):
            assert np.array_equal(
                ws.pull_rows(edge_values, 0.85, picked), dense[picked]
            )


def test_one_shard_runner_shares_permutation_and_forward_index(monkeypatch):
    """The whole-graph shard walks publishers' out-edges through the
    graph's own ``indptr`` and pulls rows through the workspace's own
    reverse-CSR permutation: neither is copied."""
    captured = []
    real = distributed.run_shards

    def spy(runners, **kwargs):
        captured.extend(runners)
        return real(runners, **kwargs)

    monkeypatch.setattr(distributed, "run_shards", spy)
    graph, assignment, peers = _workload(3, 400)
    engine = ChaoticPagerank(graph, assignment, num_peers=peers, epsilon=EPSILON)
    engine.run()
    (runner,) = captured
    assert runner._out_ptr is graph.indptr
    assert runner.view.rperm is engine.workspace.rperm


@pytest.mark.parametrize("churn", [False, True])
def test_one_shard_runner_aliases_engine_workspace(monkeypatch, churn):
    """The whole-graph shard works on the engine's own kernel arrays:
    no copy of the reverse CSR, the forward edge arrays or the
    cross-peer mask may creep back in."""
    captured = []
    real = distributed.run_shards

    def spy(runners, **kwargs):
        captured.extend(runners)
        return real(runners, **kwargs)

    monkeypatch.setattr(distributed, "run_shards", spy)
    graph, assignment, peers = _workload(3, 400)
    engine = ChaoticPagerank(graph, assignment, num_peers=peers, epsilon=EPSILON)
    availability = FixedFractionChurn(peers, 0.75, seed=5) if churn else None
    engine.run(availability=availability)

    (runner,) = captured
    ws = engine.workspace
    assert runner.rows is None
    view = runner.view
    for name in ("rindptr", "rindices", "rdata", "_rev_rowids", "_contrib",
                 "src", "dst", "edge_weight"):
        assert np.shares_memory(getattr(view, name), getattr(ws, name)), name
    if churn:
        assert np.shares_memory(runner.ecross, engine._cross_edge)
        assert runner.ecut is None
