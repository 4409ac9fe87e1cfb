"""General chaotic (asynchronous) iterative linear solver.

The paper's §6 proposes investigating "the effectiveness of distributed
asynchronous linear solutions executing on P2P systems in other problem
domains, where the generation of the elements of the matrices can be,
or are, distributed across a network".  Pagerank is one instance of the
fixed-point problem

    x = M x + c

with ``spectral_radius(|M|) < 1`` (for pagerank, ``M = d·Aᵀ D⁻¹`` and
``c = (1-d)·1``).  This module runs the general problem on the
pagerank engine's own pass step (:mod:`repro.core.shard`), so exactly
as for pagerank:

* unknowns are assigned to peers (``assignment``);
* each pass, unknowns recompute from the values their in-links last
  *announced* (only the out-targets of last pass's announcers);
* an unknown whose relative change falls below ε stops announcing —
  the chaotic stop-sending rule, with the same message accounting,
  ``core.*`` metrics and ``core.run`` trace span.

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
from repro.core.convergence import RunReport
from repro.core.distributed import run_whole_graph
from repro.core.kernels import CSRWorkspace
from repro.core.shard import cross_peer_edges, resolve_assignment

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
        Stored as a canonical copy (duplicates summed, explicit zeros
        dropped), so each stored entry is one real dependency.
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
        m = m.tocsr().astype(np.float64)  # always a copy
        m.sum_duplicates()
        m.eliminate_zeros()
        object.__setattr__(self, "matrix", m)
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
    The pagerank engine's pass step, not a copy of it: ``M``'s columns
    become the workspace's weighted edges and
    :func:`~repro.core.distributed.run_whole_graph` runs with damping 1
    (a row pulls exactly ``Σ_j M_ij x_j``), shift ``c`` and initial
    vector ``c``.  Announcements — one message per cross-peer
    dependent — stop below ε.  The cross-check test confirms the two
    engines agree on pagerank systems.
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
        # Source-major edges j -> i of weight M_ij: the columns of M.
        by_col = system.matrix.tocsc()
        self._indptr = by_col.indptr.astype(np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        self.workspace = CSRWorkspace.from_edges(
            n, src, by_col.indices.astype(np.int64), by_col.data
        )
        self._cross_edge = cross_peer_edges(self.workspace, self.assignment)

    def run(self, *, max_passes: int = 100_000, keep_history: bool = True) -> RunReport:
        """Iterate to the strong convergence criterion.

        Returns a :class:`~repro.core.convergence.RunReport`; ``ranks``
        holds the solution vector.
        """
        c = self.system.constant
        return run_whole_graph(
            self.workspace, self._indptr, self.assignment, self.num_peers,
            self._cross_edge, damping=1.0, epsilon=self.epsilon, shift=c, initial=c.copy(),
            max_passes=max_passes, keep_history=keep_history,
        )
