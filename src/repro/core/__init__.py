"""The paper's primary contribution: distributed chaotic-iteration
PageRank, with the synchronous reference solver and incremental
insert/delete updates.

* :func:`~repro.core.pagerank.pagerank_reference` — centralized
  synchronous solver (the ``R_c`` baseline of §4.3/§4.4);
* :class:`~repro.core.distributed.ChaoticPagerank` — the distributed
  asynchronous-iteration engine (Figure 1 under the §4.2 simulation
  methodology), with churn support;
* :mod:`~repro.core.incremental` — document insert/delete increment
  propagation (§3.1, §4.7, Figure 2);
* :mod:`~repro.core.convergence` — per-pass statistics and run reports.
"""

from repro.core.convergence import ConvergenceTracker, PassStats, RunReport
from repro.core.distributed import (
    AvailabilityModel,
    ChaoticPagerank,
    distributed_pagerank,
    scheduled_pagerank,
)
from repro.core.incremental import (
    PropagationResult,
    delete_document,
    insert_document,
    propagate_deltas,
    propagate_increment,
    simulate_delete,
    simulate_insert,
)
from repro.core.accelerated import aitken_pagerank, quadratic_extrapolation_pagerank
from repro.core.kernels import (
    CSRWorkspace,
    expand_rows,
    relative_change,
)
from repro.core.linear import ChaoticLinearSolver, LinearSystem
from repro.core.personalized import topic_vector
from repro.core.pagerank import DEFAULT_DAMPING, PagerankResult, pagerank_reference

__all__ = [
    "DEFAULT_DAMPING",
    "PagerankResult",
    "pagerank_reference",
    "ChaoticPagerank",
    "distributed_pagerank",
    "scheduled_pagerank",
    "AvailabilityModel",
    "RunReport",
    "PassStats",
    "ConvergenceTracker",
    "CSRWorkspace",
    "expand_rows",
    "relative_change",
    "PropagationResult",
    "propagate_increment",
    "propagate_deltas",
    "simulate_insert",
    "simulate_delete",
    "insert_document",
    "delete_document",
    "aitken_pagerank",
    "quadratic_extrapolation_pagerank",
    "ChaoticLinearSolver",
    "LinearSystem",
    "topic_vector",
]
