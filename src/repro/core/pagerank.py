"""Centralized synchronous PageRank — the paper's reference solver.

This is the "conventional synchronous iterative solver" the paper
compares its distributed scheme against (§4.3): plain Jacobi iteration
of the non-normalized pagerank recurrence

    R(i) = (1 - d) + d * Σ_{j in in(i)} R(j) / N(j)        (paper Eq. 1)

iterated to a tight tolerance.  The fixed point of this recurrence is
what Table 2 calls ``R_c``; the quality of the distributed result
``R_d`` is always measured relative to it.

Design notes
------------
* The recurrence is the *unnormalized* variant: the additive term is
  ``(1-d)``, not ``(1-d)/N``, so ranks sum to ≈ N and a freshly
  initialized document naturally starts at 1.0 — matching the paper's
  "initialize all pageranks to 1.0" and its insert protocol.
* Dangling documents (no out-links) simply contribute nothing, again
  matching Eq. 1 literally.  An optional ``dangling="redistribute"``
  mode implements the textbook correction (spread dangling mass
  uniformly) for users who want the stochastic-matrix variant; the
  reproduction experiments all use ``"none"``.
* An optional teleport ``preference`` vector ``v`` replaces the
  constant term with ``(1-d)·N·v`` — topic-sensitive ranking (§7,
  :mod:`repro.core.personalized`); everything else is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._util import check_positive, check_threshold
from repro.core.kernels import CSRWorkspace, relative_change
from repro.core.personalized import preference_shift
from repro.graphs.linkgraph import LinkGraph

__all__ = ["PagerankResult", "pagerank_reference", "DEFAULT_DAMPING"]

#: Damping factor used throughout the paper's lineage (Page et al.).
DEFAULT_DAMPING = 0.85


@dataclass(frozen=True)
class PagerankResult:
    """Outcome of a synchronous pagerank solve.

    Attributes
    ----------
    ranks:
        Final rank per document (sums to ≈ ``num_nodes`` on graphs
        without dangling mass loss).
    iterations:
        Number of full Jacobi sweeps performed.
    converged:
        Whether ``max relative change < tol`` was reached within
        ``max_iter`` sweeps.
    residual:
        Max per-document relative change in the final sweep.
    """

    ranks: np.ndarray
    iterations: int
    converged: bool
    residual: float


def pagerank_reference(
    graph: LinkGraph,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    init_rank: float = 1.0,
    dangling: str = "none",
    workspace: Optional[CSRWorkspace] = None,
    preference: Optional[np.ndarray] = None,
) -> PagerankResult:
    """Solve Eq. 1 synchronously to tolerance ``tol``.

    Parameters
    ----------
    graph:
        The document link graph.
    damping:
        Damping factor ``d`` in (0, 1).
    tol:
        Convergence tolerance on the max per-document relative change.
        The default 1e-12 is deliberately far tighter than any
        threshold the paper evaluates, so the result is a trustworthy
        ``R_c`` baseline.
    max_iter:
        Sweep budget; the solve reports ``converged=False`` rather than
        raising if it is exhausted.
    init_rank:
        Initial rank of every document (paper: 1.0).
    dangling:
        ``"none"`` (paper-faithful: dangling documents contribute no
        rank) or ``"redistribute"`` (spread dangling rank uniformly).
    workspace:
        Optional precomputed :class:`~repro.core.kernels.CSRWorkspace`,
        for callers that run several solves on the same graph.
    preference:
        Optional teleport preference vector ``v`` (non-negative, finite,
        positive mass; normalized to Σv = 1): the constant term becomes
        ``(1-d)·N·v``, so the uniform ``v`` reproduces the default.
        Dangling handling stays uniform — ``"redistribute"`` still
        spreads dangling rank evenly, not along ``v``.

    Returns
    -------
    PagerankResult
    """
    check_threshold("damping", damping)
    check_positive("tol", tol)
    check_positive("init_rank", init_rank)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if dangling not in ("none", "redistribute"):
        raise ValueError(f"dangling must be 'none' or 'redistribute', got {dangling!r}")

    n = graph.num_nodes
    shift = None if preference is None else preference_shift(preference, n, damping)
    if n == 0:
        return PagerankResult(np.zeros(0), 0, True, 0.0)

    ws = workspace if workspace is not None else CSRWorkspace.from_graph(graph)
    dangling_mask = graph.out_degrees() == 0 if dangling == "redistribute" else None

    rank = np.full(n, float(init_rank), dtype=np.float64)
    new = np.empty_like(rank)
    err = np.empty_like(rank)

    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        ws.pull(rank, damping, out=new)
        if shift is not None:
            new += shift
        if dangling_mask is not None:
            new += damping * rank[dangling_mask].sum() / n
        relative_change(rank, new, out=err)
        residual = float(err.max()) if n else 0.0
        rank, new = new, rank  # swap buffers, no copy
        if residual < tol:
            return PagerankResult(rank.copy(), iterations, True, residual)
    return PagerankResult(rank.copy(), iterations, False, residual)
