"""Tests of the shared vectorized pass kernels.

``EdgeWorkspace`` is the differential suite's per-edge oracle
(``tests/differential/edge_oracle.py``); these tests pin it to a plain
Python loop so the oracle itself stays trustworthy.
"""

import numpy as np
import pytest
from differential.edge_oracle import EdgeWorkspace
from hypothesis import given
from hypothesis import strategies as st

from repro.core import relative_change
from repro.core.kernels import CSRWorkspace
from repro.graphs import LinkGraph, broder_graph


def naive_pull(graph, values, damping):
    """Per-edge Python reference for the pull kernel."""
    out_deg = graph.out_degrees()
    result = np.full(graph.num_nodes, 1.0 - damping)
    for u, v in graph.iter_edges():
        result[v] += damping * values[u] / out_deg[u]
    return result


class TestEdgeWorkspace:
    def test_pull_matches_naive(self, small_powerlaw):
        ws = EdgeWorkspace.from_graph(small_powerlaw)
        rng = np.random.default_rng(0)
        values = rng.uniform(0.5, 2.0, small_powerlaw.num_nodes)
        fast = ws.pull(values, 0.85)
        slow = naive_pull(small_powerlaw, values, 0.85)
        assert np.allclose(fast, slow, rtol=1e-12)

    def test_pull_with_out_buffer(self, small_powerlaw):
        ws = EdgeWorkspace.from_graph(small_powerlaw)
        values = np.ones(small_powerlaw.num_nodes)
        buf = np.empty(small_powerlaw.num_nodes)
        out = ws.pull(values, 0.85, out=buf)
        assert out is buf

    def test_pull_edges_matches_pull_when_uniform(self, small_powerlaw):
        ws = EdgeWorkspace.from_graph(small_powerlaw)
        rng = np.random.default_rng(1)
        values = rng.uniform(0.5, 2.0, small_powerlaw.num_nodes)
        via_nodes = ws.pull(values, 0.85)
        via_edges = ws.pull_edges(values[ws.src], 0.85)
        assert np.allclose(via_nodes, via_edges, rtol=1e-14)

    def test_dangling_nodes_contribute_nothing(self):
        g = LinkGraph.from_edges([(0, 1), (1, 2)])  # 2 dangling
        ws = EdgeWorkspace.from_graph(g)
        out = ws.pull(np.array([1.0, 1.0, 100.0]), 0.85)
        # node 2's huge value must not reach anyone
        assert out[0] == pytest.approx(0.15)
        assert out[1] == pytest.approx(0.15 + 0.85)

    def test_workspace_arrays_consistent(self, small_powerlaw):
        ws = EdgeWorkspace.from_graph(small_powerlaw)
        assert ws.src.size == small_powerlaw.num_edges
        assert ws.dst.size == small_powerlaw.num_edges
        assert np.allclose(ws.edge_weight, ws.inv_outdeg[ws.src])


class TestReverseLayout:
    @pytest.mark.parametrize("seed", range(20))
    def test_sort_matches_stable_argsort_of_targets(self, seed):
        """The reverse layout orders edges by target, ties by forward
        edge id — the stable argsort of ``dst`` — on edge lists with
        duplicate edges, self-loops and rows without in-edges."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        e = int(rng.integers(0, 400))
        src = np.sort(rng.integers(0, n, e))
        # Targets from a few rows only, so most rows stay empty and
        # edges repeat; every fourth edge is a self-loop.
        dst = rng.choice(rng.integers(0, n, 3), e)
        dst[::4] = src[::4]
        weight = rng.uniform(0.1, 1.0, e)
        ws = CSRWorkspace.from_edges(n, src, dst, weight)
        order = np.argsort(dst, kind="stable")
        assert np.array_equal(ws.rperm, order)
        assert np.array_equal(ws.rindices, src[order])
        assert np.array_equal(ws.rdata, weight[order])
        assert np.array_equal(np.diff(ws.rindptr), np.bincount(dst, minlength=n))

    def test_rejects_sort_key_overflow(self):
        src = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="overflows"):
            CSRWorkspace.from_edges(2**62, src, src, np.ones(4))


class TestRelativeChange:
    def test_basic(self):
        old = np.array([1.0, 2.0])
        new = np.array([2.0, 2.0])
        assert np.allclose(relative_change(old, new), [0.5, 0.0])

    def test_drop_to_zero_reports_inf(self):
        # A value that falls to exactly 0 must cross any epsilon (and
        # publish); an unchanged 0 has not changed at all.
        out = relative_change(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert out[0] == np.inf
        assert out[1] == 0.0

    def test_negative_values_use_the_magnitude(self):
        # A signed divide would make these negative, below every epsilon.
        out = relative_change(np.array([-1.0, 1.0]), np.array([-2.0, -1.0]))
        assert np.array_equal(out, [0.5, 2.0])

    def test_out_buffer_reused(self):
        old, new = np.array([1.0]), np.array([4.0])
        buf = np.empty(1)
        assert relative_change(old, new, out=buf) is buf
        assert buf[0] == pytest.approx(0.75)

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20),
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20),
    )
    def test_nonnegative_and_symmetric_zero(self, a, b):
        n = min(len(a), len(b))
        old = np.array(a[:n])
        new = np.array(b[:n])
        rc = relative_change(old, new)
        assert np.all(rc >= 0)
        assert np.allclose(relative_change(new, new), 0.0)
