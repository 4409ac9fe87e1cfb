"""Personalized / topic-sensitive pagerank (paper §7 lineage).

The paper cites Haveliwala's topic-sensitive pagerank [12] and
Jeh & Widom's personalized search [13] as the related centralized
work.  Both replace the uniform teleport with a preference vector:

    R = d·Aᵀ D⁻¹ R + (1-d)·N·v,    Σv = 1

so rank mass re-enters the graph at preferred documents (a topic's
seed set, a user's bookmarks) instead of uniformly.  Only the constant
term changes, so both solvers take ``v`` as input data:

* ``pagerank_reference(graph, preference=v)`` — the synchronous solve
  (:func:`repro.core.pagerank.pagerank_reference`);
* ``ChaoticPagerank(graph, assignment, preference=v)`` — the
  distributed chaotic engine (:class:`repro.core.distributed.
  ChaoticPagerank`), with every peer up, under churn and under loss
  alike.  The teleport term is local state at each document's owner,
  so topic-sensitive ranking needs no extra messages.

This module builds preference vectors (:func:`topic_vector`) and turns
one into the per-document constant-term shift both solvers add after
their kernel pull (:func:`preference_shift`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["topic_vector", "preference_shift"]


def topic_vector(num_docs: int, topic_docs, *, weight: float = 1.0) -> np.ndarray:
    """Build a teleport preference vector concentrated on a seed set.

    ``weight`` of the teleport mass is spread uniformly over the
    distinct ``topic_docs``; the remainder uniformly over all documents
    (Haveliwala uses weight 1.0; fractional weights blend topic and
    global rank).
    """
    if num_docs < 1:
        raise ValueError(f"num_docs must be >= 1, got {num_docs}")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be in [0, 1], got {weight}")
    topic = np.unique(np.asarray(list(topic_docs), dtype=np.int64))
    if topic.size == 0:
        raise ValueError("topic_docs must be non-empty")
    if topic[0] < 0 or topic[-1] >= num_docs:
        raise ValueError("topic_docs out of range")
    v = np.full(num_docs, (1.0 - weight) / num_docs, dtype=np.float64)
    v[topic] += weight / topic.size
    return v


def preference_shift(
    preference: np.ndarray, num_docs: int, damping: float
) -> np.ndarray:
    """Validate a teleport preference vector and return the shift
    ``(1-d)·N·v − (1-d)`` that turns the kernels' uniform teleport
    ``1-d`` into ``(1-d)·N·v``.

    ``v`` is normalized to unit mass first, so the uniform vector gives
    a zero shift and ranks on the paper's unnormalized scale.
    """
    v = np.asarray(preference, dtype=np.float64)
    if v.shape != (num_docs,):
        raise ValueError(
            f"preference vector must have shape ({num_docs},), got {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("preference vector must be finite")
    if np.any(v < 0):
        raise ValueError("preference vector must be non-negative")
    total = v.sum()
    if num_docs and total <= 0:
        raise ValueError("preference vector must have positive mass")
    return (1.0 - damping) * num_docs * (v / total) - (1.0 - damping)
