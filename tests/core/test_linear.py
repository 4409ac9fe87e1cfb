"""Tests of the generalized chaotic linear solver (paper §6)."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, random as sparse_random

from repro import obs
from repro.core import ChaoticLinearSolver, LinearSystem, pagerank_reference
from repro.core.kernels import CSRWorkspace
from repro.graphs import broder_graph


def random_contraction_system(n, density, factor, seed):
    """Random sparse M with sup-norm contraction factor <= `factor`."""
    rng = np.random.default_rng(seed)
    m = sparse_random(
        n, n, density=density, format="csr", random_state=rng,
        data_rvs=lambda k: rng.uniform(-1.0, 1.0, k),
    )
    row_sums = np.abs(m).sum(axis=1).A.ravel() if hasattr(np.abs(m).sum(axis=1), "A") else np.asarray(np.abs(m).sum(axis=1)).ravel()
    scale = np.ones(n)
    nz = row_sums > 0
    scale[nz] = factor / np.maximum(row_sums[nz], factor)
    d = csr_matrix((scale, (np.arange(n), np.arange(n))), shape=(n, n))
    m = (d @ m).tocsr()
    c = rng.uniform(-1.0, 1.0, n)
    return LinearSystem(matrix=m, constant=c)


def dense_chaotic(system, assignment, epsilon, max_passes=10_000):
    """Independent oracle: the chaotic iteration as a dense ``M @ x``
    pass loop, with the engine's relative-change convention."""
    m, c = system.matrix, system.constant
    coo = m.tocoo()
    cross = assignment[coo.row] != assignment[coo.col]
    dependents = np.bincount(coo.col[cross], minlength=system.size)
    x, announced = c.copy(), c.copy()
    for _ in range(max_passes):
        new = m @ announced + c
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(new == x, 0.0, np.abs(x - new) / np.abs(new))
        active = rel > epsilon
        announced[active] = new[active]
        x = new
        if not active.any():
            break
    return x


class TestLinearSystem:
    def test_validation(self):
        with pytest.raises(TypeError):
            LinearSystem(matrix=np.eye(2), constant=np.zeros(2))
        with pytest.raises(ValueError):
            LinearSystem(
                matrix=csr_matrix(np.zeros((2, 3))), constant=np.zeros(2)
            )
        with pytest.raises(ValueError):
            LinearSystem(matrix=csr_matrix(np.zeros((2, 2))), constant=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_constant_rejected(self, bad):
        m = csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            LinearSystem(matrix=m, constant=np.array([1.0, bad]))

    def test_contraction_bound(self):
        m = csr_matrix(np.array([[0.0, 0.5], [-0.25, 0.0]]))
        sys_ = LinearSystem(matrix=m, constant=np.zeros(2))
        assert sys_.contraction_bound() == pytest.approx(0.5)

    def test_synchronous_solve_known_system(self):
        # x0 = 0.5 x1 + 1 ; x1 = 0.5 x0 + 1  =>  x = (2, 2)
        m = csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        sys_ = LinearSystem(matrix=m, constant=np.ones(2))
        x = sys_.synchronous_solve()
        assert np.allclose(x, [2.0, 2.0])

    def test_matrix_is_a_private_copy(self):
        m = csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        sys_ = LinearSystem(matrix=m, constant=np.ones(2))
        assert sys_.matrix is not m
        before = ChaoticLinearSolver(sys_, epsilon=1e-10).run().ranks
        m.data[:] = 0.25
        assert np.array_equal(sys_.matrix.toarray(), [[0.0, 0.5], [0.5, 0.0]])
        after = ChaoticLinearSolver(sys_, epsilon=1e-10).run().ranks
        assert np.array_equal(before, after)

    def test_duplicate_entries_bill_one_dependent(self):
        # Every entry stored twice, as two exact halves: the same M.
        canonical = random_contraction_system(60, 0.1, 0.8, seed=7)
        m = canonical.matrix
        doubled = csr_matrix(
            (np.repeat(m.data / 2, 2), np.repeat(m.indices, 2), 2 * m.indptr),
            shape=m.shape,
        )
        assert doubled.nnz == 2 * m.nnz
        sys_ = LinearSystem(matrix=doubled, constant=canonical.constant)
        assert sys_.matrix.nnz == m.nnz
        a = ChaoticLinearSolver(canonical, epsilon=1e-8).run()
        b = ChaoticLinearSolver(sys_, epsilon=1e-8).run()
        assert (b.passes, b.total_messages) == (a.passes, a.total_messages)
        assert [p.messages for p in b.history] == [p.messages for p in a.history]
        assert np.array_equal(a.ranks, b.ranks)

    def test_explicit_zero_is_not_a_dependent(self):
        # x0 = 1 reads x1 through a stored 0; x1 = 0.5 x0 + 1 changes
        # once and must announce to nobody.
        m = csr_matrix(
            (np.array([0.0, 0.5]), np.array([1, 0]), np.array([0, 1, 2])),
            shape=(2, 2),
        )
        assert m.nnz == 2
        sys_ = LinearSystem(matrix=m, constant=np.ones(2))
        assert sys_.matrix.nnz == 1
        report = ChaoticLinearSolver(sys_, epsilon=1e-10).run()
        assert report.total_messages == 0
        assert np.allclose(report.ranks, [1.0, 1.5])


class TestChaoticSolver:
    def test_workspace_pulls_the_matrix(self):
        sys_ = random_contraction_system(150, 0.05, 0.8, seed=9)
        solver = ChaoticLinearSolver(sys_)
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 150)
        pulled = solver.workspace.pull(x, 1.0)
        assert np.allclose(pulled, sys_.matrix @ x, rtol=0, atol=1e-14)
        assert solver.workspace.src.size == sys_.matrix.nnz

    def test_matches_synchronous_fixed_point(self):
        sys_ = random_contraction_system(200, 0.05, 0.8, seed=0)
        report = ChaoticLinearSolver(sys_, epsilon=1e-10).run()
        assert report.converged
        exact = sys_.synchronous_solve()
        assert np.allclose(report.ranks, exact, atol=1e-7)

    def test_epsilon_controls_accuracy(self):
        sys_ = random_contraction_system(300, 0.04, 0.85, seed=1)
        exact = sys_.synchronous_solve()
        errors = []
        for eps in (1e-2, 1e-5, 1e-8):
            report = ChaoticLinearSolver(sys_, epsilon=eps).run()
            errors.append(float(np.max(np.abs(report.ranks - exact))))
        assert errors[0] > errors[2]
        assert errors[2] < 1e-5

    def test_message_accounting_with_assignment(self):
        sys_ = random_contraction_system(100, 0.05, 0.8, seed=2)
        one_peer = ChaoticLinearSolver(
            sys_, np.zeros(100, dtype=np.int64), epsilon=1e-6
        ).run()
        assert one_peer.total_messages == 0
        spread = ChaoticLinearSolver(sys_, epsilon=1e-6).run()
        assert spread.total_messages > 0

    def test_agrees_with_pagerank_engine(self):
        """The pagerank problem expressed as x = M x + c must solve to
        the reference pagerank."""
        g = broder_graph(300, seed=3)
        d = 0.85
        ws = CSRWorkspace.from_graph(g)
        n = g.num_nodes
        m = csr_matrix(
            (d * ws.edge_weight, (ws.dst, ws.src)), shape=(n, n)
        )
        sys_ = LinearSystem(matrix=m, constant=np.full(n, 1 - d))
        report = ChaoticLinearSolver(sys_, epsilon=1e-10).run()
        ref = pagerank_reference(g).ranks
        assert np.allclose(report.ranks, ref, rtol=1e-6)

    def test_negative_peer_ids_rejected(self):
        sys_ = random_contraction_system(3, 0.5, 0.5, seed=5)
        with pytest.raises(ValueError, match="non-negative"):
            ChaoticLinearSolver(sys_, [-1, -1, -1])

    def test_live_peers_from_assignment(self):
        sys_ = random_contraction_system(6, 0.5, 0.5, seed=6)
        report = ChaoticLinearSolver(sys_, [0, 0, 1, 1, 2, 2]).run()
        assert {p.live_peers for p in report.history} == {3}
        default = ChaoticLinearSolver(sys_).run()
        assert {p.live_peers for p in default.history} == {6}

    def test_empty_system(self):
        sys_ = LinearSystem(
            matrix=csr_matrix((0, 0)), constant=np.zeros(0)
        )
        report = ChaoticLinearSolver(sys_).run()
        assert report.converged

    def test_validation(self):
        sys_ = random_contraction_system(10, 0.2, 0.5, seed=4)
        with pytest.raises(ValueError):
            ChaoticLinearSolver(sys_, epsilon=0.0)
        with pytest.raises(ValueError):
            ChaoticLinearSolver(sys_, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            ChaoticLinearSolver(sys_).run(max_passes=0)

    def test_reports_through_core_metrics_and_trace(self):
        sys_ = random_contraction_system(120, 0.05, 0.8, seed=8)
        buf = io.StringIO()
        with obs.use_registry() as reg, obs.use_trace_sink(obs.TraceSink(buf)):
            report = ChaoticLinearSolver(sys_, np.arange(120) % 5, epsilon=1e-8).run()
            snap = reg.snapshot()
        assert snap["core.passes"]["value"] == report.passes
        assert snap["core.messages_sent"]["value"] == report.total_messages > 0
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        spans = [r for r in records if r["name"] == "core.run"]
        assert [r["kind"] for r in spans] == ["span_begin", "span_end"]
        assert len([r for r in records if r["name"] == "core.pass"]) == report.passes

    @given(st.integers(0, 1000))
    @settings(max_examples=15)
    def test_property_random_contractions_converge(self, seed):
        sys_ = random_contraction_system(50, 0.1, 0.7, seed=seed)
        report = ChaoticLinearSolver(sys_, epsilon=1e-9).run()
        assert report.converged
        exact = sys_.synchronous_solve()
        assert np.allclose(report.ranks, exact, atol=1e-6)


# (seed, epsilon) -> (passes, total_messages, every pass's
# (active_documents, messages)) of random_contraction_system(300, 0.04,
# 0.85, seed) with unknown i on peer i % 7, recorded with the solver's
# former dense pass loop.  The shared pass step must bill the same
# traffic to the message.
PINNED_TRAFFIC = {
    (0, 0.01): (7, 9122, (
        (293, 3004), (270, 2763), (213, 2185), (96, 959), (20, 199),
        (1, 12), (0, 0),
    )),
    (0, 1e-06): (14, 32717, (
        (300, 3069), (300, 3069), (300, 3069), (300, 3069), (300, 3069),
        (300, 3069), (300, 3069), (296, 3030), (285, 2905), (251, 2563),
        (186, 1892), (70, 713), (13, 131), (0, 0),
    )),
    (0, 1e-10): (22, 56814, (
        (300, 3069), (300, 3069), (300, 3069), (300, 3069), (300, 3069),
        (300, 3069), (300, 3069), (300, 3069), (300, 3069), (300, 3069),
        (300, 3069), (300, 3069), (299, 3056), (300, 3069), (300, 3069),
        (299, 3061), (282, 2859), (245, 2529), (171, 1728), (51, 535),
        (7, 80), (0, 0),
    )),
    (1, 0.01): (7, 9601, (
        (298, 3101), (284, 2958), (214, 2250), (104, 1071), (22, 215),
        (1, 6), (0, 0),
    )),
    (1, 1e-06): (14, 32499, (
        (300, 3116), (300, 3116), (300, 3116), (300, 3116), (300, 3116),
        (300, 3116), (298, 3101), (297, 3080), (284, 2946), (248, 2578),
        (160, 1597), (49, 448), (6, 53), (0, 0),
    )),
    (1, 1e-10): (21, 56128, (
        (300, 3116), (300, 3116), (300, 3116), (300, 3116), (300, 3116),
        (300, 3116), (300, 3116), (300, 3116), (300, 3116), (300, 3116),
        (300, 3116), (300, 3116), (300, 3116), (300, 3116), (296, 3064),
        (288, 2976), (279, 2902), (217, 2207), (107, 1085), (28, 270),
        (0, 0),
    )),
    (2, 0.01): (7, 9180, (
        (287, 2957), (278, 2863), (210, 2151), (95, 1004), (19, 188),
        (2, 17), (0, 0),
    )),
    (2, 1e-06): (14, 31805, (
        (300, 3092), (300, 3092), (300, 3092), (300, 3092), (300, 3092),
        (299, 3080), (300, 3092), (293, 3032), (285, 2941), (236, 2425),
        (139, 1425), (31, 320), (4, 30), (0, 0),
    )),
    (2, 1e-10): (22, 55376, (
        (300, 3092), (300, 3092), (300, 3092), (300, 3092), (300, 3092),
        (300, 3092), (300, 3092), (300, 3092), (300, 3092), (300, 3092),
        (300, 3092), (300, 3092), (300, 3092), (299, 3085), (299, 3081),
        (291, 3003), (273, 2835), (201, 2090), (89, 925), (16, 150),
        (1, 11), (0, 0),
    )),
    (3, 0.01): (7, 9686, (
        (293, 3009), (273, 2780), (230, 2371), (116, 1165), (31, 309),
        (5, 52), (0, 0),
    )),
    (3, 1e-06): (15, 33134, (
        (300, 3066), (300, 3066), (300, 3066), (300, 3066), (300, 3066),
        (299, 3057), (299, 3057), (297, 3041), (290, 2971), (265, 2694),
        (190, 1925), (82, 821), (20, 198), (4, 40), (0, 0),
    )),
    (3, 1e-10): (22, 55964, (
        (300, 3066), (300, 3066), (300, 3066), (300, 3066), (300, 3066),
        (300, 3066), (300, 3066), (300, 3066), (300, 3066), (300, 3066),
        (300, 3066), (300, 3066), (300, 3066), (300, 3066), (299, 3055),
        (295, 3027), (279, 2874), (242, 2487), (113, 1170), (36, 373),
        (6, 54), (0, 0),
    )),
    (4, 0.01): (7, 9270, (
        (296, 3055), (272, 2807), (220, 2235), (95, 945), (19, 196),
        (2, 32), (0, 0),
    )),
    (4, 1e-06): (15, 32968, (
        (300, 3096), (300, 3096), (300, 3096), (300, 3096), (299, 3087),
        (300, 3096), (297, 3066), (296, 3063), (286, 2940), (259, 2669),
        (172, 1789), (65, 711), (12, 131), (2, 32), (0, 0),
    )),
    (4, 1e-10): (22, 56249, (
        (300, 3096), (300, 3096), (300, 3096), (300, 3096), (300, 3096),
        (300, 3096), (300, 3096), (300, 3096), (300, 3096), (300, 3096),
        (300, 3096), (300, 3096), (300, 3096), (299, 3085), (298, 3074),
        (292, 3003), (282, 2907), (228, 2359), (117, 1206), (36, 336),
        (2, 31), (0, 0),
    )),
    (5, 0.01): (7, 9280, (
        (294, 3045), (271, 2790), (212, 2199), (95, 1021), (22, 217),
        (1, 8), (0, 0),
    )),
    (5, 1e-06): (14, 32655, (
        (300, 3091), (300, 3091), (300, 3091), (299, 3083), (300, 3091),
        (300, 3091), (298, 3074), (296, 3046), (289, 2983), (261, 2685),
        (163, 1672), (53, 553), (10, 104), (0, 0),
    )),
    (5, 1e-10): (22, 55947, (
        (300, 3091), (300, 3091), (300, 3091), (300, 3091), (300, 3091),
        (300, 3091), (300, 3091), (300, 3091), (300, 3091), (300, 3091),
        (300, 3091), (300, 3091), (300, 3091), (300, 3091), (299, 3083),
        (291, 2997), (275, 2828), (221, 2279), (117, 1211), (24, 245),
        (3, 30), (0, 0),
    )),
}


@pytest.mark.parametrize("seed, epsilon", sorted(PINNED_TRAFFIC))
def test_pinned_traffic(seed, epsilon):
    sys_ = random_contraction_system(300, 0.04, 0.85, seed=seed)
    assignment = np.arange(300) % 7
    report = ChaoticLinearSolver(sys_, assignment, epsilon=epsilon).run()
    passes, total, per_pass = PINNED_TRAFFIC[(seed, epsilon)]
    assert report.converged
    assert (report.passes, report.total_messages) == (passes, total)
    assert tuple(
        (p.active_documents, p.messages) for p in report.history
    ) == per_pass
    # The bincount pull and scipy's matvec may round differently.
    oracle = dense_chaotic(sys_, assignment, epsilon)
    assert np.allclose(report.ranks, oracle, rtol=0, atol=1e-12)
