"""Tests of the generalized chaotic linear solver (paper §6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, random as sparse_random

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


class TestChaoticSolver:
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

    @given(st.integers(0, 1000))
    @settings(max_examples=15)
    def test_property_random_contractions_converge(self, seed):
        sys_ = random_contraction_system(50, 0.1, 0.7, seed=seed)
        report = ChaoticLinearSolver(sys_, epsilon=1e-9).run()
        assert report.converged
        exact = sys_.synchronous_solve()
        assert np.allclose(report.ranks, exact, atol=1e-6)
