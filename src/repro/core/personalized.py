"""Personalized / topic-sensitive pagerank (paper §7 lineage).

The paper cites Haveliwala's topic-sensitive pagerank [12] and
Jeh & Widom's personalized search [13] as the related centralized
work.  Both replace the uniform teleport with a preference vector:

    R = d·Aᵀ D⁻¹ R + (1-d)·N·v,    Σv = 1

so rank mass re-enters the graph at preferred documents (a topic's
seed set, a user's bookmarks) instead of uniformly.  This module
provides the preference-vector variants of both solvers:

* :func:`personalized_reference` — synchronous solve with teleport
  vector ``v`` (the uniform ``v = 1/N`` reproduces
  :func:`repro.core.pagerank.pagerank_reference` exactly);
* :func:`personalized_chaotic` — the same distributed chaotic engine
  semantics with a per-document teleport term, showing the paper's
  scheme extends unchanged to topic-sensitive ranking: the teleport
  term is local state, so no extra messages are needed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._util import check_positive, check_threshold
from repro.core.convergence import ConvergenceTracker, PassStats, RunReport
from repro.core.kernels import CSRWorkspace, relative_change
from repro.core.pagerank import DEFAULT_DAMPING, PagerankResult
from repro.graphs.linkgraph import LinkGraph

__all__ = ["personalized_reference", "personalized_chaotic", "topic_vector"]


def topic_vector(num_docs: int, topic_docs, *, weight: float = 1.0) -> np.ndarray:
    """Build a teleport preference vector concentrated on a seed set.

    ``weight`` of the teleport mass is spread uniformly over
    ``topic_docs``; the remainder uniformly over all documents (Haveliwala
    uses weight 1.0; fractional weights blend topic and global rank).
    """
    if num_docs < 1:
        raise ValueError(f"num_docs must be >= 1, got {num_docs}")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be in [0, 1], got {weight}")
    topic = np.asarray(list(topic_docs), dtype=np.int64)
    if topic.size == 0:
        raise ValueError("topic_docs must be non-empty")
    if topic.min() < 0 or topic.max() >= num_docs:
        raise ValueError("topic_docs out of range")
    v = np.full(num_docs, (1.0 - weight) / num_docs, dtype=np.float64)
    v[topic] += weight / topic.size
    return v


def _validate_preference(v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"preference vector must have shape ({n},), got {v.shape}")
    if np.any(v < 0):
        raise ValueError("preference vector must be non-negative")
    total = v.sum()
    if total <= 0:
        raise ValueError("preference vector must have positive mass")
    return v / total


def personalized_reference(
    graph: LinkGraph,
    preference: np.ndarray,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> PagerankResult:
    """Synchronous personalized pagerank with teleport vector ``v``.

    Uses the paper's unnormalized scale: the teleport term is
    ``(1-d)·N·v`` so the uniform ``v`` gives the familiar per-document
    floor of ``1-d`` and ranks comparable to the global solver's.
    """
    check_threshold("damping", damping)
    check_positive("tol", tol)
    n = graph.num_nodes
    if n == 0:
        return PagerankResult(np.zeros(0), 0, True, 0.0)
    v = _validate_preference(preference, n)
    teleport = (1.0 - damping) * n * v

    ws = CSRWorkspace.from_graph(graph)
    rank = np.full(n, 1.0)
    new = np.empty_like(rank)
    err = np.empty_like(rank)
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        ws.pull(rank, damping, out=new)
        # replace the uniform (1-d) the kernel added with the teleport
        new += teleport - (1.0 - damping)
        relative_change(rank, new, out=err)
        residual = float(err.max())
        rank, new = new, rank
        if residual < tol:
            return PagerankResult(rank.copy(), iterations, True, residual)
    return PagerankResult(rank.copy(), iterations, False, residual)


def personalized_chaotic(
    graph: LinkGraph,
    preference: np.ndarray,
    assignment: Optional[np.ndarray] = None,
    *,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-4,
    max_passes: int = 100_000,
    keep_history: bool = True,
) -> RunReport:
    """Distributed chaotic personalized pagerank.

    Identical message protocol to :class:`~repro.core.distributed.
    ChaoticPagerank` — the teleport term is purely local to each
    document's owner, which is the point: topic-sensitive ranking costs
    the P2P system nothing extra in communication.
    """
    check_threshold("damping", damping)
    check_threshold("epsilon", epsilon)
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    n = graph.num_nodes
    tracker = ConvergenceTracker(epsilon, keep_history=keep_history)
    if n == 0:
        return tracker.finish(np.zeros(0), True)
    v = _validate_preference(preference, n)
    teleport = (1.0 - damping) * n * v

    if assignment is None:
        assignment = np.arange(n, dtype=np.int64)
    else:
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (n,):
            raise ValueError(f"assignment must have shape ({n},)")

    ws = CSRWorkspace.from_graph(graph)
    src = ws.src
    cross = assignment[src] != assignment[ws.dst]
    remote_outdeg = np.bincount(src[cross], minlength=n).astype(np.int64)
    num_peers = int(assignment.max()) + 1 if n else 0

    rank = np.full(n, 1.0)
    last_sent = rank.copy()
    new = np.empty_like(rank)
    err = np.empty_like(rank)

    converged = False
    for t in range(max_passes):
        ws.pull(last_sent, damping, out=new)
        new += teleport - (1.0 - damping)
        relative_change(rank, new, out=err)
        active = err > epsilon
        messages = int(remote_outdeg[active].sum())
        last_sent[active] = new[active]
        rank, new = new, rank
        tracker.record(
            PassStats(
                pass_index=t,
                max_rel_change=float(err.max()),
                active_documents=int(active.sum()),
                messages=messages,
                deferred_messages=0,
                live_peers=num_peers,
                computed_documents=n,
            )
        )
        if not active.any():
            converged = True
            break
    return tracker.finish(rank.copy(), converged)
