"""Unit tests for the CSR LinkGraph structure."""

import numpy as np
import pytest

from repro.graphs import LinkGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = LinkGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert list(g.out_links(0)) == [1]
        assert list(g.out_links(1)) == [2]
        assert list(g.out_links(2)) == [0]

    def test_explicit_num_nodes_allows_isolated(self):
        g = LinkGraph.from_edges([(0, 1)], num_nodes=5)
        assert g.num_nodes == 5
        assert g.out_links(4).size == 0

    def test_self_loops_dropped_by_default(self):
        g = LinkGraph.from_edges([(0, 0), (0, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_self_loops_kept_when_allowed(self):
        g = LinkGraph.from_edges([(0, 0), (0, 1)], allow_self_loops=True)
        assert g.num_edges == 2
        assert g.has_edge(0, 0)

    def test_duplicate_edges_deduped(self):
        g = LinkGraph.from_edges([(0, 1), (0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 2

    def test_duplicates_kept_when_requested(self):
        g = LinkGraph.from_edges([(0, 1), (0, 1)], dedupe=False)
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = LinkGraph.from_edges([], num_nodes=4)
        assert g.num_nodes == 4
        assert g.num_edges == 0
        assert g.dangling_nodes().size == 4

    def test_from_adjacency_dict(self):
        g = LinkGraph.from_adjacency({0: [1, 2], 2: [0]})
        assert g.num_nodes == 3
        assert sorted(g.out_links(0).tolist()) == [1, 2]
        assert g.out_links(1).size == 0

    def test_from_adjacency_list(self):
        g = LinkGraph.from_adjacency([[1], [2], []])
        assert g.num_nodes == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LinkGraph.from_edges([(-1, 0)])

    def test_endpoint_beyond_num_nodes_rejected(self):
        with pytest.raises(ValueError, match="num_nodes"):
            LinkGraph.from_edges([(0, 5)], num_nodes=3)

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            LinkGraph.from_edges([(0, 1, 2)])

    def test_invalid_csr_rejected(self):
        with pytest.raises(ValueError):
            LinkGraph(np.array([0, 2, 1]), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            LinkGraph(np.array([1, 2]), np.array([0, 1]), 1)
        with pytest.raises(ValueError):
            LinkGraph(np.array([0, 2]), np.array([0, 5]), 1)

    def test_arrays_are_frozen(self):
        g = LinkGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            g.indices[0] = 0
        with pytest.raises(ValueError):
            g.indptr[0] = 1


class TestAccessors:
    def test_degrees(self):
        g = LinkGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        assert g.out_degrees().tolist() == [2, 1, 0]
        assert g.in_degrees().tolist() == [0, 1, 2]

    def test_inv_out_degrees_shared_and_read_only(self):
        g = LinkGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        inv = g.inv_out_degrees()
        assert inv.tolist() == [0.5, 1.0, 0.0]
        assert g.inv_out_degrees() is inv  # one array for every consumer
        with pytest.raises(ValueError):
            inv[0] = 2.0

    def test_dangling_nodes(self):
        g = LinkGraph.from_edges([(0, 1), (1, 2)])
        assert g.dangling_nodes().tolist() == [2]

    def test_in_links(self):
        g = LinkGraph.from_edges([(0, 2), (1, 2), (2, 0)])
        assert sorted(g.in_links(2).tolist()) == [0, 1]
        assert g.in_links(1).size == 0

    def test_has_edge(self):
        g = LinkGraph.from_edges([(0, 1)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_node_bounds_checked(self):
        g = LinkGraph.from_edges([(0, 1)])
        with pytest.raises(IndexError):
            g.out_links(2)
        with pytest.raises(IndexError):
            g.has_edge(0, 9)

    def test_len_and_repr(self):
        g = LinkGraph.from_edges([(0, 1)])
        assert len(g) == 2
        assert "num_nodes=2" in repr(g)

    def test_edge_array_roundtrip(self):
        edges = [(0, 1), (0, 2), (3, 1)]
        g = LinkGraph.from_edges(edges, num_nodes=4)
        back = {tuple(e) for e in g.edge_array().tolist()}
        assert back == set(edges)

    def test_iter_edges_matches_edge_array(self):
        g = LinkGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert set(g.iter_edges()) == {tuple(e) for e in g.edge_array().tolist()}


class TestReverse:
    def test_reverse_swaps_edges(self):
        g = LinkGraph.from_edges([(0, 1), (1, 2)])
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert r.num_edges == g.num_edges

    def test_reverse_is_cached_and_involutive(self):
        g = LinkGraph.from_edges([(0, 1), (1, 2)])
        assert g.reverse() is g.reverse()
        assert g.reverse().reverse() is g

    def test_reverse_degree_duality(self, small_powerlaw):
        r = small_powerlaw.reverse()
        assert np.array_equal(small_powerlaw.in_degrees(), r.out_degrees())
        assert np.array_equal(small_powerlaw.out_degrees(), r.in_degrees())


class TestScipyExport:
    def test_to_scipy_csr(self):
        g = LinkGraph.from_edges([(0, 1), (1, 0), (1, 2)])
        m = g.to_scipy_csr()
        assert m.shape == (3, 3)
        assert m.nnz == 3
        assert m[1, 2] == 1.0


class TestStructuralEdits:
    def test_with_node_added(self):
        g = LinkGraph.from_edges([(0, 1)])
        g2 = g.with_node_added([0, 1])
        assert g2.num_nodes == 3
        assert sorted(g2.out_links(2).tolist()) == [0, 1]
        # new node has no in-links (paper §4.7)
        assert g2.in_links(2).size == 0
        # original untouched
        assert g.num_nodes == 2

    def test_with_node_added_validates_targets(self):
        g = LinkGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            g.with_node_added([5])

    def test_with_node_added_dedupes(self):
        g = LinkGraph.from_edges([(0, 1)])
        g2 = g.with_node_added([0, 0, 1])
        assert g2.out_links(2).size == 2

    def test_with_node_removed(self):
        g = LinkGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
        g2 = g.with_node_removed(1)
        assert g2.num_nodes == 2
        # old node 2 is now node 1; edges through node 1 are gone.
        assert g2.has_edge(1, 0)  # was (2, 0)
        assert g2.has_edge(0, 1)  # was (0, 2)
        assert g2.num_edges == 2

    def test_remove_then_degrees_consistent(self, small_powerlaw):
        g2 = small_powerlaw.with_node_removed(0)
        assert g2.num_nodes == small_powerlaw.num_nodes - 1
        assert int(g2.out_degrees().sum()) == g2.num_edges

    def test_equality_and_hash(self):
        a = LinkGraph.from_edges([(0, 1), (1, 0)])
        b = LinkGraph.from_edges([(1, 0), (0, 1)])
        c = LinkGraph.from_edges([(0, 1)], num_nodes=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a.__eq__(42) is NotImplemented

    def test_degree_statistics(self, small_powerlaw):
        stats = small_powerlaw.degree_statistics()
        assert stats["num_nodes"] == small_powerlaw.num_nodes
        assert stats["mean_out_degree"] == pytest.approx(
            small_powerlaw.num_edges / small_powerlaw.num_nodes
        )
