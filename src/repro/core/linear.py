"""General chaotic (asynchronous) iterative linear solver.

The paper's §6 proposes investigating "the effectiveness of distributed
asynchronous linear solutions executing on P2P systems in other problem
domains, where the generation of the elements of the matrices can be,
or are, distributed across a network".  Pagerank is one instance of the
fixed-point problem

    x = M x + c

with ``spectral_radius(|M|) < 1`` (for pagerank, ``M = d·Aᵀ D⁻¹`` and
``c = (1-d)·1``).  This module implements that general problem under
the same distributed execution model as the pagerank engine:

* unknowns are assigned to peers (``assignment``);
* each pass, every unknown recomputes from the values its in-links
  last *announced*;
* an unknown whose relative change falls below ε stops announcing —
  the chaotic stop-sending rule, with the same message accounting.

Chazan & Miranker (1969, the paper's ref. [5]) prove such iterations
converge whenever ``rho(|M|) < 1`` for any bounded-delay interleaving;
the property-based tests draw random contraction systems and check
exactly that, with the synchronous solve (``scipy``) as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix, issparse

from repro._util import check_threshold
from repro.core.convergence import ConvergenceTracker, PassStats, RunReport
from repro.core.shard import resolve_assignment

__all__ = ["ChaoticLinearSolver", "LinearSystem"]


@dataclass(frozen=True)
class LinearSystem:
    """A fixed-point system ``x = M x + c``.

    Attributes
    ----------
    matrix:
        Sparse ``(n, n)`` iteration matrix ``M``.  Convergence of the
        chaotic iteration requires ``rho(|M|) < 1`` (sufficient:
        any induced norm of ``|M|`` below 1, e.g. max absolute row sum).
    constant:
        The affine term ``c`` (length n).
    """

    matrix: csr_matrix
    constant: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if not issparse(m):
            raise TypeError("matrix must be a scipy sparse matrix")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got {m.shape}")
        c = np.asarray(self.constant, dtype=np.float64)
        if c.shape != (m.shape[0],):
            raise ValueError(
                f"constant must have shape ({m.shape[0]},), got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("constant must be finite")
        object.__setattr__(self, "matrix", m.tocsr())
        object.__setattr__(self, "constant", c)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def contraction_bound(self) -> float:
        """Max absolute row sum of ``M`` — an upper bound on the
        sup-norm contraction factor (safe when < 1)."""
        return float(np.abs(self.matrix).sum(axis=1).max()) if self.size else 0.0

    def synchronous_solve(self, *, tol: float = 1e-13, max_iter: int = 100_000) -> np.ndarray:
        """Reference fixed point by plain synchronous iteration."""
        x = self.constant.copy()
        for _ in range(max_iter):
            new = self.matrix @ x + self.constant
            if np.max(np.abs(new - x)) < tol:
                return new
            x = new
        return x


class ChaoticLinearSolver:
    """Distributed chaotic iteration for ``x = M x + c`` (paper §6).

    Parameters
    ----------
    system:
        The fixed-point system.
    assignment:
        Unknown → peer mapping (``None``: each unknown its own peer).
    epsilon:
        Stop-announcing threshold on the relative change of an unknown.

    Notes
    -----
    Exactly the pagerank engine's semantics, generalised: receivers
    compute from last-announced values; announcements (and the network
    messages they imply for cross-peer dependents) stop below ε.  The
    pagerank engine remains a separate, specialised implementation
    because its kernels exploit the uniform ``1/outdeg`` edge weights;
    the cross-check test confirms the two agree on pagerank systems.
    """

    def __init__(
        self,
        system: LinearSystem,
        assignment: Optional[np.ndarray] = None,
        *,
        epsilon: float = 1e-6,
    ) -> None:
        check_threshold("epsilon", epsilon)
        self.system = system
        self.epsilon = float(epsilon)
        n = system.size
        self.assignment, self.num_peers = resolve_assignment(n, assignment, None)
        # remote_dependents[j] = number of unknowns on *other* peers
        # that read x_j — the messages one announcement of j costs.
        m = system.matrix.tocoo()
        cross = self.assignment[m.row] != self.assignment[m.col]
        self._remote_dependents = np.bincount(
            m.col[cross], minlength=n
        ).astype(np.int64)

    def run(self, *, max_passes: int = 100_000, keep_history: bool = True) -> RunReport:
        """Iterate to the strong convergence criterion.

        Returns a :class:`~repro.core.convergence.RunReport`; ``ranks``
        holds the solution vector.
        """
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        sys_ = self.system
        n = sys_.size
        tracker = ConvergenceTracker(self.epsilon, keep_history=keep_history)
        if n == 0:
            return tracker.finish(np.zeros(0), True)

        x = sys_.constant.copy()
        announced = x.copy()

        converged = False
        for t in range(max_passes):
            new = sys_.matrix @ announced + sys_.constant
            denom = np.where(new != 0, np.abs(new), 1.0)
            rel = np.abs(x - new) / denom
            rel[(new == 0) & (x == 0)] = 0.0
            active = rel > self.epsilon
            messages = int(self._remote_dependents[active].sum())
            announced[active] = new[active]
            x = new
            tracker.record(
                PassStats(
                    pass_index=t,
                    max_rel_change=float(rel.max()),
                    active_documents=int(active.sum()),
                    messages=messages,
                    deferred_messages=0,
                    live_peers=self.num_peers,
                    computed_documents=n,
                )
            )
            if not active.any():
                converged = True
                break
        return tracker.finish(x.copy(), converged)
