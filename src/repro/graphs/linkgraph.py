"""Immutable CSR document link graph.

:class:`LinkGraph` is the central data structure of the library: a
directed graph of documents where an edge ``u -> v`` means document
``u`` contains a hyperlink (a GUID reference in DHT terms, §2.2) to
document ``v`` — the substrate both the §2 pagerank computation and
the §4.1 evaluation graphs are built on.  It is stored in compressed-sparse-row (CSR) form — two flat
integer arrays — so that the per-pass pagerank kernels are pure
vectorized NumPy with no per-edge Python, per the hpc-parallel
optimization guides (contiguous access, views not copies).

The reverse (in-link) adjacency is materialised lazily and cached,
because the synchronous reference solver iterates over in-links while
the distributed engines push along out-links.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LinkGraph"]


class LinkGraph:
    """Directed document link graph in CSR (out-adjacency) form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; the out-links of
        node ``i`` are ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``int64`` array of edge targets, grouped by source.
    num_nodes:
        Optional explicit node count; inferred from ``indptr`` when
        omitted.
    validate:
        When true (default) check structural invariants.  Generators
        that construct provably valid CSR arrays pass ``False`` to skip
        the O(E) checks.

    Notes
    -----
    Instances are immutable: the arrays are flagged non-writeable and
    all "mutating" operations (:meth:`with_node_added`,
    :meth:`with_node_removed`) return new graphs.  This is what makes
    it safe for several simulation engines to share one graph.
    """

    __slots__ = ("_indptr", "_indices", "_n", "_reverse_cache", "_inv_out_cache")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_nodes: Optional[int] = None,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        n = int(num_nodes) if num_nodes is not None else indptr.size - 1
        if validate:
            if n != indptr.size - 1:
                raise ValueError(
                    f"num_nodes={n} inconsistent with indptr of length {indptr.size}"
                )
            if indptr[0] != 0:
                raise ValueError("indptr[0] must be 0")
            if indptr[-1] != indices.size:
                raise ValueError(
                    f"indptr[-1]={indptr[-1]} must equal len(indices)={indices.size}"
                )
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if indices.size and (indices.min() < 0 or indices.max() >= n):
                raise ValueError("edge targets out of range [0, num_nodes)")
        # Freeze: several engines share one graph; accidental writes
        # through a view must fail loudly.
        indptr = indptr.copy() if indptr.flags.writeable else indptr
        indices = indices.copy() if indices.flags.writeable else indices
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        self._n = n
        self._reverse_cache: Optional["LinkGraph"] = None
        self._inv_out_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        num_nodes: Optional[int] = None,
        *,
        dedupe: bool = True,
        allow_self_loops: bool = False,
    ) -> "LinkGraph":
        """Build a graph from an iterable of ``(src, dst)`` pairs.

        Parameters
        ----------
        edges:
            Edge pairs; any iterable, or an ``(E, 2)`` integer array.
        num_nodes:
            Node count; inferred as ``max(node id) + 1`` when omitted.
        dedupe:
            Drop duplicate edges (a document linking twice to the same
            target counts once, matching how the paper's link matrix
            ``A`` has a single ``1/N_j`` entry per distinct link).
        allow_self_loops:
            Keep ``u -> u`` edges when true; dropped by default (a
            document's link to itself carries no rank information).
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs of (src, dst)")
        arr = arr.astype(np.int64, copy=False)
        if arr.size and arr.min() < 0:
            raise ValueError("node ids must be non-negative")
        n = int(num_nodes) if num_nodes is not None else (int(arr.max()) + 1 if arr.size else 0)
        if arr.size and int(arr.max()) >= n:
            raise ValueError(f"edge endpoint {int(arr.max())} >= num_nodes={n}")
        src, dst = arr[:, 0], arr[:, 1]
        if not allow_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        if dedupe and src.size:
            # Sort by (src, dst) with a single composite key; unique on
            # the key removes duplicate edges in O(E log E).
            key = src * np.int64(n) + dst
            key, first = np.unique(key, return_index=True)
            src, dst = src[first], dst[first]
        return cls._from_src_dst(src, dst, n)

    @classmethod
    def _from_src_dst(cls, src: np.ndarray, dst: np.ndarray, n: int) -> "LinkGraph":
        """Counting-sort ``(src, dst)`` arrays into CSR form (O(E))."""
        counts = np.bincount(src, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(src, kind="stable")
        indices = dst[order]
        return cls(indptr, indices, n, validate=False)

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Dict[int, Sequence[int]] | Sequence[Sequence[int]],
        num_nodes: Optional[int] = None,
    ) -> "LinkGraph":
        """Build from ``{node: [targets]}`` or a list of target lists."""
        if isinstance(adjacency, dict):
            if adjacency:
                max_key = max(adjacency)
                max_val = max((max(v) for v in adjacency.values() if len(v)), default=-1)
                inferred = max(max_key, max_val) + 1
            else:
                inferred = 0
            n = int(num_nodes) if num_nodes is not None else inferred
            items: Iterator[Tuple[int, Sequence[int]]] = iter(sorted(adjacency.items()))
        else:
            n = int(num_nodes) if num_nodes is not None else len(adjacency)
            items = iter(enumerate(adjacency))
        edges: List[Tuple[int, int]] = []
        for u, targets in items:
            for v in targets:
                edges.append((int(u), int(v)))
        return cls.from_edges(edges, n)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index (edge target) array (read-only view)."""
        return self._indices

    @property
    def num_nodes(self) -> int:
        """Number of documents in the graph."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed links."""
        return self._indices.size

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkGraph(num_nodes={self._n}, num_edges={self.num_edges})"

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node, as a fresh ``int64`` array."""
        return np.diff(self._indptr)

    def inv_out_degrees(self) -> np.ndarray:
        """``1 / out-degree`` of every node (0 for dangling nodes),
        computed once and cached read-only so every consumer of one
        graph shares a single array."""
        if self._inv_out_cache is None:
            out_deg = self.out_degrees()
            inv = np.zeros(self._n, dtype=np.float64)
            nz = out_deg > 0
            inv[nz] = 1.0 / out_deg[nz]
            inv.setflags(write=False)
            self._inv_out_cache = inv
        return self._inv_out_cache

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node (O(E) bincount; no reverse build)."""
        return np.bincount(self._indices, minlength=self._n).astype(np.int64)

    def out_links(self, node: int) -> np.ndarray:
        """Targets of ``node``'s out-links (read-only CSR view)."""
        self._check_node(node)
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def in_links(self, node: int) -> np.ndarray:
        """Sources linking to ``node`` (uses the cached reverse graph)."""
        return self.reverse().out_links(node)

    def has_edge(self, u: int, v: int) -> bool:
        """True if the directed link ``u -> v`` exists."""
        self._check_node(u)
        self._check_node(v)
        row = self.out_links(u)
        # rows are not sorted in general; linear scan on a view.
        return bool(np.any(row == v))

    def dangling_nodes(self) -> np.ndarray:
        """Nodes with no out-links (rank sinks in the paper's model)."""
        return np.flatnonzero(np.diff(self._indptr) == 0)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise IndexError(f"node {node} out of range [0, {self._n})")

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def reverse(self) -> "LinkGraph":
        """The transpose graph (in-adjacency), built once and cached.

        Construction is a vectorized counting sort, O(E), no Python
        loop.  The reverse of the reverse is wired back to ``self`` so
        the pair shares both caches.
        """
        if self._reverse_cache is None:
            src = self._indices  # targets become sources
            # Expand CSR rows to a per-edge source array.
            dst = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))
            rev = LinkGraph._from_src_dst(src, dst, self._n)
            rev._reverse_cache = self
            self._reverse_cache = rev
        return self._reverse_cache

    def to_scipy_csr(self):
        """Export as a ``scipy.sparse.csr_matrix`` of ones (the link
        incidence matrix; row = source, column = target)."""
        from scipy.sparse import csr_matrix

        data = np.ones(self.num_edges, dtype=np.float64)
        return csr_matrix((data, self._indices, self._indptr), shape=(self._n, self._n))

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(E, 2)`` array of ``(src, dst)``."""
        src = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))
        return np.column_stack([src, self._indices])

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(src, dst)`` pairs (slow path; tests/exports only)."""
        for u in range(self._n):
            for v in self.out_links(u):
                yield u, int(v)

    # ------------------------------------------------------------------
    # Structural edits (used by the incremental-update experiments)
    # ------------------------------------------------------------------
    def with_node_added(self, out_links: Sequence[int]) -> "LinkGraph":
        """Return a new graph with one extra node appended.

        The new node gets id ``num_nodes`` and the given out-links.  It
        has no in-links — exactly the paper's §4.7 observation that a
        freshly inserted document cannot yet be linked to, i.e. the new
        row of the ``A`` matrix is all zeroes.
        """
        out = np.unique(np.asarray(list(out_links), dtype=np.int64))
        if out.size and (out.min() < 0 or out.max() >= self._n):
            raise ValueError("new node's out-links must point at existing nodes")
        indptr = np.empty(self._n + 2, dtype=np.int64)
        indptr[:-1] = self._indptr
        indptr[-1] = self._indptr[-1] + out.size
        indices = np.concatenate([self._indices, out])
        return LinkGraph(indptr, indices, self._n + 1, validate=False)

    def with_node_removed(self, node: int) -> "LinkGraph":
        """Return a new graph with ``node`` deleted.

        Mathematically this deletes the node's row and column from the
        link matrix (paper §4.7, "Document deletions").  Remaining
        nodes are renumbered: ids above ``node`` shift down by one.
        """
        self._check_node(node)
        edges = self.edge_array()
        keep = (edges[:, 0] != node) & (edges[:, 1] != node)
        edges = edges[keep]
        # Renumber: ids > node shift down.
        edges = edges - (edges > node)
        return LinkGraph.from_edges(edges, self._n - 1, dedupe=False)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def degree_statistics(self) -> Dict[str, float]:
        """Summary statistics used by the generator self-checks."""
        out = self.out_degrees()
        ind = self.in_degrees()
        return {
            "num_nodes": float(self._n),
            "num_edges": float(self.num_edges),
            "mean_out_degree": float(out.mean()) if self._n else 0.0,
            "max_out_degree": float(out.max()) if self._n else 0.0,
            "mean_in_degree": float(ind.mean()) if self._n else 0.0,
            "max_in_degree": float(ind.max()) if self._n else 0.0,
            "dangling_fraction": float((out == 0).mean()) if self._n else 0.0,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._indptr.tobytes(), self._indices.tobytes()))
