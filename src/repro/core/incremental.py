"""Incremental pagerank updates on document insert/delete (paper §3.1, §4.7).

When a document enters the network it is initialized to rank 1.0 and
pushes a ``d·R/N`` increment along each out-link; every recipient adds
the increment to its rank and, while the increment is still significant
(relative change above ε), forwards ``d·δ/N`` shares of it along its
own out-links.  Deletion is the same propagation with the negated rank.
Figure 2's worked example (G = 1 → H gets 1/3 → K, L get 1/6 each) is
this process with damping 1.

The experimental quantities of Table 4:

* **path length** — how many hops the farthest forwarded increment
  travels before falling below ε;
* **node coverage** — how many distinct documents receive at least one
  update message (the paper's upper bound on insert message cost).

The propagation here is *level-synchronous*: all increments arriving at
a document within one hop-level are accumulated before the forwarding
decision, which matches the batched per-pass delivery of the §4.2
simulation and makes the measurement deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro._util import check_threshold
from repro.core.kernels import expand_rows, segment_sum
from repro.core.pagerank import DEFAULT_DAMPING
from repro.graphs.linkgraph import LinkGraph

__all__ = [
    "PropagationResult",
    "propagate_increment",
    "propagate_deltas",
    "simulate_insert",
    "simulate_delete",
    "insert_document",
    "delete_document",
]


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of one increment propagation.

    Attributes
    ----------
    path_length:
        Hop count of the deepest level at which messages were sent
        (0 when the source's increment was already below threshold).
    node_coverage:
        Distinct documents that received at least one update message.
    messages:
        Total update messages sent (one per traversed out-link).
    rank_delta:
        Dense per-document accumulated rank change (length N); add to
        the pre-insert rank vector to get the updated ranks.
    truncated:
        True if ``max_depth`` stopped the propagation before the
        increments decayed below threshold (only possible with
        ``damping`` at or extremely near 1 on cyclic graphs).
    """

    path_length: int
    node_coverage: int
    messages: int
    rank_delta: np.ndarray
    truncated: bool


def propagate_increment(
    graph: LinkGraph,
    source: int,
    increment: float,
    *,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-3,
    base_ranks: Optional[np.ndarray] = None,
    max_depth: int = 100_000,
) -> PropagationResult:
    """Propagate a rank increment from ``source`` through its out-links.

    Parameters
    ----------
    graph:
        Document link graph (the source must already be a node of it;
        see :func:`insert_document` for growing the graph first).
    source:
        Document whose rank changed.
    increment:
        Signed rank change at the source (+1.0 for a fresh insert,
        ``-rank`` for a delete).
    damping:
        Damping factor ``d``; each forwarded share is ``d·δ/N``.
        ``1.0`` is allowed here (Figure 2's arithmetic) even though the
        iterative engines require ``d < 1``.
    epsilon:
        Forwarding threshold ε.  A document forwards only while the
        relative change ``|δ| / new_rank`` it experienced exceeds ε
        (with ``base_ranks``), or while ``|δ| > ε`` when no base ranks
        are supplied (documents at their initial rank 1.0 make the two
        tests equal at first order).
    base_ranks:
        Current converged ranks, for the relative stopping test and for
        computing the updated ranks.  ``None`` applies the absolute
        test.
    max_depth:
        Safety bound on propagation depth (see
        :attr:`PropagationResult.truncated`).

    Returns
    -------
    PropagationResult
    """
    check_threshold("epsilon", epsilon)
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    graph._check_node(source)
    n = graph.num_nodes
    if base_ranks is not None:
        base_ranks = np.asarray(base_ranks, dtype=np.float64)
        if base_ranks.shape != (n,):
            raise ValueError(f"base_ranks must have shape ({n},), got {base_ranks.shape}")

    return _run_propagation(
        graph,
        np.array([source], dtype=np.int64),
        np.array([float(increment)], dtype=np.float64),
        damping=damping,
        epsilon=epsilon,
        base_ranks=base_ranks,
        max_depth=max_depth,
        count_frontier_as_received=False,
    )


def propagate_deltas(
    graph: LinkGraph,
    nodes: np.ndarray,
    deltas: np.ndarray,
    *,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-3,
    base_ranks: Optional[np.ndarray] = None,
    max_depth: int = 100_000,
) -> PropagationResult:
    """Propagate increments *arriving at* several documents at once.

    Where :func:`propagate_increment` models one document changing and
    pushing shares outward, this models a batch of update messages
    landing on ``nodes`` (each carrying its entry of ``deltas``): the
    recipients apply them, count as having received a message, and
    forward onward per the usual rule.  This is the primitive the
    corrected deletion protocol needs — a delete injects updates at the
    victim's out-link targets *and* degree-correction updates at its
    in-neighbours' remaining targets.
    """
    check_threshold("epsilon", epsilon)
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    nodes = np.asarray(nodes, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if nodes.shape != deltas.shape or nodes.ndim != 1:
        raise ValueError("nodes and deltas must be 1-D arrays of equal length")
    if nodes.size and (nodes.min() < 0 or nodes.max() >= graph.num_nodes):
        raise ValueError("nodes out of range")
    if base_ranks is not None:
        base_ranks = np.asarray(base_ranks, dtype=np.float64)
        if base_ranks.shape != (graph.num_nodes,):
            raise ValueError(
                f"base_ranks must have shape ({graph.num_nodes},), "
                f"got {base_ranks.shape}"
            )
    # Coalesce duplicate targets (several injected messages may address
    # the same document).
    if nodes.size:
        acc = np.zeros(graph.num_nodes, dtype=np.float64)
        np.add.at(acc, nodes, deltas)
        uniq = np.unique(nodes)
        nodes, deltas = uniq, acc[uniq]
    return _run_propagation(
        graph,
        nodes,
        deltas,
        damping=damping,
        epsilon=epsilon,
        base_ranks=base_ranks,
        max_depth=max_depth,
        count_frontier_as_received=True,
    )


def _run_propagation(
    graph: LinkGraph,
    frontier_nodes: np.ndarray,
    frontier_delta: np.ndarray,
    *,
    damping: float,
    epsilon: float,
    base_ranks: Optional[np.ndarray],
    max_depth: int,
    count_frontier_as_received: bool,
) -> PropagationResult:
    """Level-synchronous increment propagation (shared core)."""
    n = graph.num_nodes
    indptr, indices = graph.indptr, graph.indices
    out_deg = graph.out_degrees()

    rank_delta = np.zeros(n, dtype=np.float64)
    rank_delta[frontier_nodes] += frontier_delta
    received = np.zeros(n, dtype=bool)

    messages = 0
    path_length = 0
    truncated = False
    if count_frontier_as_received:
        received[frontier_nodes] = True
        messages += int(frontier_nodes.size)

    for depth in range(max_depth + 1):
        # Forwarding test on the accumulated per-node increments.
        if base_ranks is None:
            significant = np.abs(frontier_delta) > epsilon
        else:
            new_rank = base_ranks[frontier_nodes] + rank_delta[frontier_nodes]
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.abs(frontier_delta) / np.abs(new_rank)
            rel[new_rank == 0] = np.inf
            significant = rel > epsilon
        senders = frontier_nodes[significant]
        send_delta = frontier_delta[significant]
        # Dangling senders have nothing to forward.
        has_out = out_deg[senders] > 0
        senders, send_delta = senders[has_out], send_delta[has_out]
        if senders.size == 0:
            break
        if depth == max_depth:
            truncated = True
            break

        # Vectorized expansion of all senders' out-links (shared CSR
        # row-expansion kernel).
        edge_pos, counts = expand_rows(indptr, senders)
        total = edge_pos.size
        targets = indices[edge_pos]
        shares = np.repeat(damping * send_delta / counts, counts)

        messages += total
        path_length = depth + 1
        received[targets] = True

        # Accumulate per-target increments arriving this level.
        acc = segment_sum(targets, shares, n)
        uniq_targets = np.unique(targets)
        arrived = acc[uniq_targets]
        rank_delta[uniq_targets] += arrived

        frontier_nodes = uniq_targets
        frontier_delta = arrived

    return PropagationResult(
        path_length=path_length,
        node_coverage=int(received.sum()),
        messages=messages,
        rank_delta=rank_delta,
        truncated=truncated,
    )


def simulate_insert(
    graph: LinkGraph,
    node: int,
    *,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-3,
    initial_rank: float = 1.0,
    base_ranks: Optional[np.ndarray] = None,
    max_depth: int = 100_000,
) -> PropagationResult:
    """Table 4's insert experiment on an existing node.

    The paper measures insert cost by picking a random *existing* node,
    resetting its pagerank to the initial value (1.0), and propagating
    — the node stands in for a freshly inserted document with the same
    out-links.  This function is that experiment for one node.
    """
    return propagate_increment(
        graph,
        node,
        float(initial_rank),
        damping=damping,
        epsilon=epsilon,
        base_ranks=base_ranks,
        max_depth=max_depth,
    )


def simulate_delete(
    graph: LinkGraph,
    node: int,
    ranks: np.ndarray,
    *,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-3,
    max_depth: int = 100_000,
) -> PropagationResult:
    """Propagate a document deletion: the negated rank flows out.

    The deleted node's out-links receive ``-d·R/N`` and the system
    re-converges incrementally (§4.7, "Document deletions").  The
    returned ``rank_delta`` applies to the *pre-deletion* graph; callers
    removing the node structurally should follow with
    :meth:`LinkGraph.with_node_removed`.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.shape != (graph.num_nodes,):
        raise ValueError(
            f"ranks must have shape ({graph.num_nodes},), got {ranks.shape}"
        )
    return propagate_increment(
        graph,
        node,
        -float(ranks[node]),
        damping=damping,
        epsilon=epsilon,
        base_ranks=ranks,
        max_depth=max_depth,
    )


def insert_document(
    graph: LinkGraph,
    out_links: Sequence[int],
    ranks: np.ndarray,
    *,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-3,
    initial_rank: float = 1.0,
    max_depth: int = 100_000,
) -> tuple[LinkGraph, np.ndarray, PropagationResult]:
    """True structural insert: grow the graph and update ranks in place.

    Returns the new graph (one extra node, id ``graph.num_nodes``), the
    updated rank vector (length N+1), and the propagation statistics.
    This is the protocol of §3.1: the document is "immediately
    integrated into the distributed pagerank computation scheme".

    Unlike :func:`simulate_insert` (which reproduces the paper's
    Table 4 measurement by propagating the raw initial value), the
    value propagated here is the document's *computed* rank — ``1 - d``
    for a just-inserted document, which has no in-links (its Fig. 1
    recompute would produce exactly that).  Propagating the computed
    rank is what makes the incrementally updated state agree with a
    full recomputation on the grown graph; ``initial_rank`` only
    matters as the Fig. 1 protocol constant and is accepted for
    interface symmetry.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.shape != (graph.num_nodes,):
        raise ValueError(
            f"ranks must have shape ({graph.num_nodes},), got {ranks.shape}"
        )
    new_graph = graph.with_node_added(out_links)
    new_id = graph.num_nodes
    base = np.append(ranks, 0.0)
    computed_rank = 1.0 - damping if damping < 1.0 else float(initial_rank)
    result = propagate_increment(
        new_graph,
        new_id,
        computed_rank,
        damping=damping,
        epsilon=epsilon,
        base_ranks=base,
        max_depth=max_depth,
    )
    return new_graph, base + result.rank_delta, result


def delete_document(
    graph: LinkGraph,
    node: int,
    ranks: np.ndarray,
    *,
    damping: float = DEFAULT_DAMPING,
    epsilon: float = 1e-3,
    max_depth: int = 100_000,
) -> tuple[LinkGraph, np.ndarray, PropagationResult]:
    """True structural delete with the full linear-system correction.

    Returns the shrunken graph (ids above ``node`` shift down by one),
    the updated rank vector (length N-1), and the propagation
    statistics.

    The paper's §3.1 delete protocol only sends the victim's negated
    rank along its out-links.  That misses a second effect of removing
    the matrix row *and column*: every document ``u`` that linked **to**
    the victim loses one out-link, so its contribution to each
    remaining target rises from ``R_u/N_u`` to ``R_u/(N_u - 1)``.
    Without the correction, deleting well-linked documents leaves
    permanent error in their neighbourhoods (this reproduction measured
    ~17 % at the 95th percentile after a handful of deletes).  This
    function injects both update sets on the pruned graph:

    * ``-d·R_v/N_v`` at each of the victim's out-link targets;
    * ``+d·R_u·(1/(N_u−1) − 1/N_u)`` at each remaining target of each
      in-neighbour ``u`` (skipped when ``N_u = 1``: ``u`` simply
      becomes dangling).

    :func:`simulate_delete` remains the paper-faithful (uncorrected)
    variant for reproducing the §4.7 measurements.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.shape != (graph.num_nodes,):
        raise ValueError(
            f"ranks must have shape ({graph.num_nodes},), got {ranks.shape}"
        )
    graph._check_node(node)
    out_deg = graph.out_degrees()

    def renumber(x: np.ndarray) -> np.ndarray:
        return x - (x > node)

    inj_nodes: list = []
    inj_deltas: list = []

    # 1) The victim's own rank is withdrawn from its targets.
    victim_targets = graph.out_links(node)
    victim_targets = victim_targets[victim_targets != node]
    if victim_targets.size:
        share = -damping * float(ranks[node]) / out_deg[node]
        inj_nodes.append(renumber(victim_targets))
        inj_deltas.append(np.full(victim_targets.size, share))

    # 2) In-neighbours' remaining targets gain the degree correction.
    for u in graph.in_links(node):
        u = int(u)
        if u == node:
            continue
        n_u = int(out_deg[u])
        if n_u < 2:
            continue  # u becomes dangling; nothing left to boost
        remaining = graph.out_links(u)
        remaining = remaining[remaining != node]
        bump = damping * float(ranks[u]) * (1.0 / (n_u - 1) - 1.0 / n_u)
        inj_nodes.append(renumber(remaining))
        inj_deltas.append(np.full(remaining.size, bump))

    new_graph = graph.with_node_removed(node)
    base = np.delete(ranks, node)
    if inj_nodes:
        result = propagate_deltas(
            new_graph,
            np.concatenate(inj_nodes),
            np.concatenate(inj_deltas),
            damping=damping,
            epsilon=epsilon,
            base_ranks=base,
            max_depth=max_depth,
        )
    else:
        result = PropagationResult(
            path_length=0,
            node_coverage=0,
            messages=0,
            rank_delta=np.zeros(new_graph.num_nodes),
            truncated=False,
        )
    return new_graph, base + result.rank_delta, result
