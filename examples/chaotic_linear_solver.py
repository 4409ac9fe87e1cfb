#!/usr/bin/env python
"""Chaotic iteration beyond pagerank (paper §6, "other problem domains").

The paper's future work proposes using the same distributed
asynchronous solver "in other problem domains, where the generation of
the elements of the matrices can be, or are, distributed across a
network".  This example solves two such problems with
:class:`repro.core.ChaoticLinearSolver`:

1. **Steady-state temperature on a sensor grid**: each node relaxes to
   the average of its neighbours plus a local source — the discrete
   Laplace/heat equilibrium, the canonical distributed-averaging task
   (each sensor is a peer; matrix rows are inherently local).
2. **The pagerank system itself**, written as ``x = M x + c``, to show
   the specialised engine and the general solver agree.

Run:  python examples/chaotic_linear_solver.py
"""

import numpy as np
from scipy.sparse import csr_matrix

from _scale import scaled
from repro.analysis import format_table
from repro.core import (
    ChaoticLinearSolver,
    ChaoticPagerank,
    CSRWorkspace,
    LinearSystem,
)
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement


def grid_heat_system(side: int, coupling: float = 0.9) -> LinearSystem:
    """x_i = coupling * mean(neighbours) + source_i on a side x side grid."""
    n = side * side
    rows, cols, vals = [], [], []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            neighbours = []
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < side and 0 <= cc < side:
                    neighbours.append(rr * side + cc)
            for j in neighbours:
                rows.append(i)
                cols.append(j)
                vals.append(coupling / len(neighbours))
    m = csr_matrix((vals, (rows, cols)), shape=(n, n))
    rng = np.random.default_rng(0)
    sources = rng.uniform(0.0, 2.0, n)  # heat injected at each sensor
    return LinearSystem(matrix=m, constant=sources)


def main() -> None:
    # ---- 1. sensor-grid heat equilibrium -----------------------------
    side = scaled(40, floor=8)
    system = grid_heat_system(side)
    print(f"Sensor grid {side}x{side}: contraction bound "
          f"{system.contraction_bound():.2f}")
    # one sensor per peer — every link is a network link
    solver = ChaoticLinearSolver(system, epsilon=1e-8)
    report = solver.run()
    exact = system.synchronous_solve()
    err = float(np.max(np.abs(report.ranks - exact)))
    rows = [
        ("unknowns", system.size),
        ("passes", report.passes),
        ("update messages", report.total_messages),
        ("max abs error vs exact", f"{err:.2e}"),
    ]
    print(format_table(["metric", "value"], rows,
                       title="Distributed heat equilibrium via chaotic iteration"))

    # ---- 2. pagerank through the general solver ----------------------
    g = broder_graph(3000, seed=1)
    d = 0.85
    ws = CSRWorkspace.from_graph(g)
    m = csr_matrix((d * ws.edge_weight, (ws.dst, ws.src)),
                   shape=(g.num_nodes, g.num_nodes))
    pagerank_system = LinearSystem(matrix=m, constant=np.full(g.num_nodes, 1 - d))

    placement = DocumentPlacement.random(g.num_nodes, 50, seed=2)
    general = ChaoticLinearSolver(
        pagerank_system, placement.assignment, epsilon=1e-6
    ).run()
    special = ChaoticPagerank(
        g, placement.assignment, num_peers=50, epsilon=1e-6
    ).run()
    agreement = float(np.max(np.abs(general.ranks - special.ranks)
                             / special.ranks))
    print(f"\nPagerank via the general solver: {general.passes} passes, "
          f"max deviation from the specialised engine {agreement:.2e}")
    print("Same chaotic protocol, any contraction system — the paper's "
          "section 6 generalisation, working.")


if __name__ == "__main__":
    main()
