"""Vectorized per-pass pagerank kernels shared by all engines.

Both the synchronous reference solver and the chaotic distributed
engine compute, once per pass, the quantity

    new(i) = (1 - d) + d * Σ_{j -> i} value(j) / outdeg(j)

over every in-link of every document (paper Eq. 1); the link weights
are data (:meth:`CSRWorkspace.from_edges`), so the same kernels pull
any sparse ``x = Mx + c`` system.  One kernel class
implements that contract: :class:`CSRWorkspace`, a precomputed
reverse-CSR (in-adjacency) layout of flat numpy ``indptr``/``indices``/
``data`` arrays (no scipy), plus the forward per-edge arrays and the
permutation between the two.  Besides the full pulls it supports
**selective row recomputation** (:meth:`CSRWorkspace.pull_rows`): only
the rows whose in-edge values changed since the last pass are
re-summed.  A row whose inputs are untouched would re-sum to
bit-identical values, so skipping it cannot change any result — the
speedup is mechanical, not semantic.  The same
class covers the whole graph (:meth:`CSRWorkspace.from_graph`) or a
row subset of it (:meth:`CSRWorkspace.restrict`, one shard of the
sharded pass in :mod:`repro.core.shard`).

Bit-identity rests on one numerical fact the test suite pins down:
``np.bincount`` accumulates its weights *sequentially* in array order,
so per-target sums come out identical whether the edges are walked in
forward (source-major) order or grouped per row of the reverse CSR —
within one target, both orders list in-edges by ascending source.
(``np.add.reduceat`` is *not* used: it sums pairwise, which rounds
differently.)  The differential suite keeps a plain per-edge pull as
an independent oracle (``tests/differential/edge_oracle.py``) and
checks the engines against it bit for bit.

Workspaces hold precomputed arrays plus reusable output buffers
(allocated once, reused every pass — "be easy on the memory" per the
optimization guide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.graphs.linkgraph import LinkGraph

__all__ = [
    "CSRWorkspace",
    "expand_rows",
    "relative_change",
    "segment_sum",
]


def segment_sum(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """``out[i] = Σ weights[k] over index[k] == i`` for ``n`` bins, each
    summed in array order (the order bit-identity rests on).  ``repro
    lint`` flags a weighted ``np.bincount`` anywhere else (FLT003)."""
    return np.bincount(index, weights=weights, minlength=n)


def expand_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat positions of every CSR entry of ``rows``, plus row lengths.

    Returns ``(pos, lens)`` where ``pos`` indexes the CSR data/indices
    arrays and ``lens[k]`` is the entry count of ``rows[k]``; entries of
    one row are contiguous in ``pos`` and keep their CSR order.  Pure
    vectorized index arithmetic, O(total entries) with one array of
    that length — shared by the selective pull kernel, the engines'
    frontier expansion, and the incremental-update propagation.
    """
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lens
    # Steps of one within a row; the first entry of each non-empty row
    # steps from the previous row's last entry to its own start.
    nz = lens > 0
    starts_nz, lens_nz = starts[nz], lens[nz]
    pos = np.ones(total, dtype=np.int64)
    pos[0] = starts_nz[0]
    pos[np.cumsum(lens_nz[:-1])] = starts_nz[1:] - (starts_nz[:-1] + lens_nz[:-1] - 1)
    np.cumsum(pos, out=pos)
    return pos, lens


@dataclass
class CSRWorkspace:
    """Reverse-CSR pull kernel with selective row recomputation.

    The layout is three flat numpy arrays (no scipy): ``rindptr`` of
    length ``rows + 1``, ``rindices`` listing the *source* document of
    every in-edge grouped by target, and ``rdata`` carrying the edge
    weight (``1/outdeg(source)`` for pagerank).  Within one target the
    sources appear in ascending order — the same per-target order
    ``np.bincount`` accumulates the forward (source-major) edge walk
    in, which is what makes :meth:`pull`, :meth:`pull_rows` and
    :meth:`pull_edges` bit-identical to one another and to a plain
    per-edge pull.

    The forward per-edge arrays (``src``/``dst``/``edge_weight``) are
    kept too: the pass step's §3.1 per-edge delivered-value state is
    indexed by forward edge, and ``rperm`` maps every reverse-CSR
    entry to its forward edge, so :meth:`pull_rows` reads per-edge
    values row by row.

    A workspace covers a set of *rows* (target documents): every
    document for :meth:`from_graph`, a sorted subset for
    :meth:`restrict`.  Row ids — ``dst``, the rows :meth:`pull_rows`
    takes and the positions of every output — are local to that set;
    source ids (``src``, ``rindices``) stay global, so every kernel
    reads straight out of a whole-graph value array.

    Attributes
    ----------
    num_nodes:
        Rows the kernels compute (every document of a whole-graph
        workspace).
    rindptr:
        In-adjacency row pointers (length ``num_nodes + 1``).
    rindices:
        In-edge source document per reverse-CSR entry.
    rdata:
        ``edge_weight`` in reverse-CSR order — the weight of each
        in-edge.
    rperm:
        Forward edge id of every reverse-CSR entry (``rindices ==
        src[rperm]``).
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    edge_weight: np.ndarray
    rindptr: np.ndarray
    rindices: np.ndarray
    rdata: np.ndarray
    rperm: np.ndarray
    _contrib: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _rowids: Optional[np.ndarray] = field(repr=False, default=None)

    @classmethod
    def from_graph(cls, graph: LinkGraph) -> "CSRWorkspace":
        """:meth:`from_edges` with link ``j -> i`` weighted ``1/outdeg(j)``."""
        n = graph.num_nodes
        out_deg = graph.out_degrees()
        src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
        inv = np.zeros(n, dtype=np.float64)
        nz = out_deg > 0
        inv[nz] = 1.0 / out_deg[nz]
        return cls.from_edges(n, src, graph.indices, inv[src])

    @classmethod
    def from_edges(
        cls, n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> "CSRWorkspace":
        """Build forward + reverse layouts (O(E log E) setup) for ``n``
        rows from weighted edges ``src -> dst`` listed source-major.

        Raises ``ValueError`` when ``n * E`` reaches ``2**63``: the
        reverse layout is sorted on int64 keys below that product.
        """
        # Reverse CSR: order the forward edges by target, ties by edge
        # id, which keeps within each target the ascending-source order
        # the forward bincount accumulates in.  The keys ``dst * E +
        # edge id`` are unique, so any sort yields that order — the
        # stable argsort of ``dst`` — and an unstable one is faster.
        e = int(dst.size)
        if n * e >= 2**63:
            raise ValueError(
                f"{n} rows x {e} edges overflows the int64 reverse-CSR sort key"
            )
        keys = dst.astype(np.int64) * e
        keys += np.arange(e, dtype=np.int64)
        order = np.argsort(keys)
        del keys
        rindptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=rindptr[1:])
        return cls._build(
            src, dst, weight, rindptr, src[order], weight[order], order
        )

    def restrict(self, rows: np.ndarray) -> "CSRWorkspace":
        """The same kernels over ``rows`` (sorted, unique document ids)
        of this whole-graph workspace (O(E) one-time setup).

        Every row keeps its complete in-edge list in ascending-source
        order, in both layouts, so the values computed for ``rows`` are
        bit-identical to what the whole-graph kernels put there — the
        partition cannot change any result, only who computes it.  The
        view's forward edges are this workspace's edges into ``rows``,
        in order, and its ``rperm`` indexes them.
        """
        rows = np.asarray(rows, dtype=np.int64)
        pos, lens = expand_rows(self.rindptr, rows)
        rindptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=rindptr[1:])
        member = np.zeros(self.num_nodes, dtype=bool)
        member[rows] = True
        sel = np.flatnonzero(member[self.dst])
        return self._build(
            self.src[sel],
            np.searchsorted(rows, self.dst[sel]),
            self.edge_weight[sel],
            rindptr,
            self.rindices[pos],
            self.rdata[pos],
            np.searchsorted(sel, self.rperm[pos]),
        )

    @classmethod
    def _build(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        edge_weight: np.ndarray,
        rindptr: np.ndarray,
        rindices: np.ndarray,
        rdata: np.ndarray,
        rperm: np.ndarray,
    ) -> "CSRWorkspace":
        rows = rindptr.size - 1
        ws = cls(
            num_nodes=rows,
            src=src,
            dst=dst,
            edge_weight=edge_weight,
            rindptr=rindptr,
            rindices=rindices,
            rdata=rdata,
            rperm=rperm,
        )
        ws._contrib = np.empty(src.size, dtype=np.float64)
        return ws

    @property
    def _rev_rowids(self) -> np.ndarray:
        """Row id of every reverse-CSR entry, which :meth:`pull` bins
        by; built on first use, since the pass step never needs it."""
        if self._rowids is None:
            self._rowids = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), np.diff(self.rindptr)
            )
        return self._rowids

    # ------------------------------------------------------------------
    def row_edges(self, rows: np.ndarray) -> int:
        """Total in-edge count of ``rows``."""
        return int((self.rindptr[rows + 1] - self.rindptr[rows]).sum())

    def pull(self, values: np.ndarray, damping: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One full pull pass over the reverse layout: the new rank of
        every row from the global ``values`` (``(1-d) + d * Σ_in
        weight * values[src]``).

        Parameters
        ----------
        values:
            Per-node values visible to receivers (the current ranks of
            the synchronous solver).
        damping:
            The damping factor ``d``.
        out:
            Optional preallocated length-``num_nodes`` output buffer.
        """
        np.multiply(values[self.rindices], self.rdata, out=self._contrib)
        acc = segment_sum(self._rev_rowids, self._contrib, self.num_nodes)
        if out is None:
            out = np.empty(self.num_nodes, dtype=np.float64)
        np.multiply(acc, damping, out=out)
        out += 1.0 - damping
        return out

    def pull_rows(
        self, edge_values: np.ndarray, damping: float, rows: np.ndarray
    ) -> np.ndarray:
        """Selective :meth:`pull_edges`: recompute only ``rows`` (sorted
        row ids) from per-edge values in forward edge order.

        Returns the new rank of each requested row, bit-identical to
        ``pull_edges(edge_values, damping)[rows]``: each row's in-edges
        are walked in the same forward order and summed by the same
        sequential ``bincount``.
        """
        pos, lens = expand_rows(self.rindptr, rows)
        k = rows.size
        if pos.size == 0:
            return np.full(k, 1.0 - damping, dtype=np.float64)
        contrib = edge_values[self.rperm[pos]]
        contrib *= self.rdata[pos]
        local = np.repeat(np.arange(k, dtype=np.int64), lens)
        acc = segment_sum(local, contrib, k)
        np.multiply(acc, damping, out=acc)
        acc += 1.0 - damping
        return acc

    def pull_edges(
        self,
        edge_values: np.ndarray,
        damping: float,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pull pass where each edge carries its own delivered value.

        Used by the pass step: ``edge_values[e]`` is the last value
        actually *delivered* along forward edge ``e`` (deliveries fail
        while the receiving peer is absent), so different out-edges of
        the same document may carry different vintages of its rank —
        exactly the store-and-resend behaviour of §3.1.
        """
        np.multiply(edge_values, self.edge_weight, out=self._contrib)
        acc = segment_sum(self.dst, self._contrib, self.num_nodes)
        if out is None:
            out = np.empty(self.num_nodes, dtype=np.float64)
        np.multiply(acc, damping, out=out)
        out += 1.0 - damping
        return out


def relative_change(old: np.ndarray, new: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-document relative error ``|old - new| / |new|`` (paper Fig. 1).

    For finite inputs of any sign: an unchanged value (0 included)
    reports 0, and a drop to exactly 0 reports ``inf``, so the ε-gate
    publishes it.  Where ``new > 0`` (uniform pagerank) the bits equal
    ``|old - new| / new``.
    """
    if out is None:
        out = np.empty_like(new)
    np.subtract(old, new, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, new, out=out)
    np.abs(out, out=out)
    # Only an unchanged 0 divides to NaN (0/0); fmax maps it to 0.  No
    # masked divide: numpy's ``where=`` loop is slow on ragged masks.
    np.fmax(out, 0.0, out=out)
    return out
