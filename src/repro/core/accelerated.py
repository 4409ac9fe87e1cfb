"""Extrapolation-accelerated centralized pagerank (paper §7 comparators).

The paper's related-work section claims, "on the basis of our limited
results, that the asynchronous iteration may converge more rapidly than
the acceleration methods studied in [14]" — Kamvar et al.'s
extrapolation methods for accelerating pagerank.  To make that claim
testable, this module implements two standard accelerations of the
synchronous solver:

* **Aitken Δ² extrapolation** — per-component quadratic convergence
  boost applied periodically to the iterate sequence;
* **Kamvar-style quadratic extrapolation** — estimates the second
  eigenvector's contamination from three successive iterates and
  subtracts it (the simplified power-series form of [14]).

Both are *centralized* algorithms: they need synchronized access to
whole iterate vectors, which is exactly why the paper's distributed
setting cannot use them — the ablation benchmark quantifies what that
synchronisation buys and costs versus the chaotic scheme.

Measured result (``benchmarks/test_ablation_acceleration.py``): on the
§4.1 power-law graphs these extrapolations do **not** reduce sweep
counts — the iteration error carries several eigenmodes of magnitude
near the damping factor with complex phases, which single-real-mode
extrapolants overcorrect.  That observation lines up with the paper's
§7 remark that its asynchronous iteration "may converge more rapidly
than the acceleration methods studied in [14]"; both implementations
are kept as the honest comparators behind that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._util import check_positive, check_threshold
from repro.core.kernels import CSRWorkspace, relative_change
from repro.core.pagerank import DEFAULT_DAMPING, PagerankResult
from repro.graphs.linkgraph import LinkGraph

__all__ = ["aitken_pagerank", "quadratic_extrapolation_pagerank"]


def aitken_pagerank(
    graph: LinkGraph,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    extrapolate_every: int = 10,
    init_rank: float = 1.0,
) -> PagerankResult:
    """Power iteration with periodic per-component Aitken Δ².

    Every ``extrapolate_every`` sweeps, three consecutive iterates
    x⁰, x¹, x² are combined as

        x* = x² − (Δx¹)² / Δ²x⁰     (component-wise, guarded)

    which cancels the dominant geometric error mode.  Components whose
    second difference is numerically zero are left at x².
    """
    check_threshold("damping", damping)
    check_positive("tol", tol)
    if extrapolate_every < 3:
        raise ValueError(
            f"extrapolate_every must be >= 3, got {extrapolate_every}"
        )
    n = graph.num_nodes
    if n == 0:
        return PagerankResult(np.zeros(0), 0, True, 0.0)
    ws = CSRWorkspace.from_graph(graph)

    x = np.full(n, float(init_rank))
    prev1 = x.copy()
    prev2 = x.copy()
    err = np.empty_like(x)

    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        new = ws.pull(x, damping)
        relative_change(x, new, out=err)
        residual = float(err.max())
        prev2, prev1 = prev1, x
        x = new
        if residual < tol:
            return PagerankResult(x.copy(), iterations, True, residual)
        if iterations % extrapolate_every == 0 and iterations >= 3:
            d1 = prev1 - prev2
            d2 = x - prev1
            denom = d2 - d1
            safe = np.abs(denom) > 1e-300
            accel = x.copy()
            accel[safe] = x[safe] - d2[safe] ** 2 / denom[safe]
            # Guard: extrapolation can overshoot below the (1-d) floor,
            # which is impossible for the true solution.
            floor = 1.0 - damping
            accel = np.maximum(accel, floor)
            x = accel
    return PagerankResult(x.copy(), iterations, False, residual)


def quadratic_extrapolation_pagerank(
    graph: LinkGraph,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    extrapolate_every: int = 20,
    init_rank: float = 1.0,
) -> PagerankResult:
    """Kamvar-style quadratic extrapolation (simplified [14]).

    Models the iterate as the fixed point plus contamination from the
    two subdominant eigenvectors; solves a tiny least-squares problem
    on three successive differences to cancel them.  Falls back to the
    plain iterate whenever the local problem is degenerate.
    """
    check_threshold("damping", damping)
    check_positive("tol", tol)
    if extrapolate_every < 4:
        raise ValueError(
            f"extrapolate_every must be >= 4, got {extrapolate_every}"
        )
    n = graph.num_nodes
    if n == 0:
        return PagerankResult(np.zeros(0), 0, True, 0.0)
    ws = CSRWorkspace.from_graph(graph)

    history = []
    x = np.full(n, float(init_rank))
    err = np.empty_like(x)

    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        new = ws.pull(x, damping)
        relative_change(x, new, out=err)
        residual = float(err.max())
        history.append(new.copy())
        if len(history) > 4:
            history.pop(0)
        x = new
        if residual < tol:
            return PagerankResult(x.copy(), iterations, True, residual)
        if iterations % extrapolate_every == 0 and len(history) == 4:
            x_k3, x_k2, x_k1, x_k = history
            y1 = x_k2 - x_k3
            y2 = x_k1 - x_k3
            y3 = x_k - x_k3
            # Solve  [y1 y2] [g1 g2]^T ~= -y3  in least squares; the
            # extrapolated point is a combination cancelling the two
            # slowest modes (Kamvar et al., eq. simplified).
            basis = np.column_stack([y1, y2])
            coef, *_ = np.linalg.lstsq(basis, -y3, rcond=None)
            g1, g2 = float(coef[0]), float(coef[1])
            denom = 1.0 + g1 + g2
            if abs(denom) > 1e-8:
                accel = (x_k + g2 * x_k1 + g1 * x_k2) / denom
                floor = 1.0 - damping
                if np.all(np.isfinite(accel)):
                    x = np.maximum(accel, floor)
                    history.clear()
    return PagerankResult(x.copy(), iterations, False, residual)
