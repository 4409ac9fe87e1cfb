"""Independent per-edge oracle for the chaotic pass.

:class:`EdgeWorkspace` is the plain per-edge pull kernel (a full gather
and scatter-add over every edge, every pass) and
:func:`reference_pagerank` is a small loop that runs the paper's chaotic
iteration (§2.3, Figure 1) with it: a dense pull every pass, no
frontier selection, and — under churn or injected loss — the §3.1
per-edge store-and-resend state.  Nothing here shares code with the
engine's pass step, so a test that finds the engine bitwise equal to
this loop checks the selective frontier, the ε-gate and the
resend/deliver/defer/park logic against a second implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core import PassStats
from repro.faults.plan import FaultPlan
from repro.graphs.linkgraph import LinkGraph


@dataclass
class EdgeWorkspace:
    """Per-edge arrays + scratch buffers of the plain pull kernel.

    Attributes
    ----------
    src:
        Source document of every edge (length E).
    dst:
        Target document of every edge (length E).
    inv_outdeg:
        ``1 / outdeg`` per *node* (0.0 for dangling nodes so a gather
        through it contributes nothing).
    edge_weight:
        ``inv_outdeg[src]`` per edge — the share of the source's rank
        this edge carries.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    inv_outdeg: np.ndarray
    edge_weight: np.ndarray
    _contrib: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_graph(cls, graph: LinkGraph) -> "EdgeWorkspace":
        n = graph.num_nodes
        out_deg = graph.out_degrees()
        src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
        inv = np.zeros(n, dtype=np.float64)
        nz = out_deg > 0
        inv[nz] = 1.0 / out_deg[nz]
        ws = cls(n, src, graph.indices, inv, inv[src])
        ws._contrib = np.empty(src.size, dtype=np.float64)
        return ws

    def pull(
        self, values: np.ndarray, damping: float, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(1-d) + d * Σ_in values[src]/outdeg`` for every node."""
        return self.pull_edges(values[self.src], damping, out=out)

    def pull_edges(
        self,
        edge_values: np.ndarray,
        damping: float,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pull pass where each edge carries its own delivered value."""
        np.multiply(edge_values, self.edge_weight, out=self._contrib)
        acc = np.bincount(self.dst, weights=self._contrib, minlength=self.num_nodes)
        if out is None:
            out = np.empty(self.num_nodes, dtype=np.float64)
        np.multiply(acc, damping, out=out)
        out += 1.0 - damping
        return out


@dataclass
class OracleReport:
    ranks: np.ndarray
    passes: int
    converged: bool
    total_messages: int
    history: List[PassStats]


def _rel_change(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``|old - new| / |new|``: ``inf`` where a value drops to exactly
    0, and 0 where it is unchanged (an unchanged 0 included) — the
    engine's convention (``repro.core.relative_change``).  Only a
    preference vector with zero entries can zero a rank."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(old == new, 0.0, np.abs(old - new) / np.abs(new))


def reference_pagerank(
    graph: LinkGraph,
    assignment: np.ndarray,
    num_peers: int,
    *,
    epsilon: float,
    damping: float = 0.85,
    availability=None,
    fault_plan: Optional[FaultPlan] = None,
    max_passes: int = 100_000,
    preference: Optional[np.ndarray] = None,
) -> OracleReport:
    """Chaotic pagerank with a dense per-edge pull every pass.

    Without ``availability`` or ``fault_plan`` documents keep one
    last-sent value each; otherwise every edge keeps the value last
    delivered along it, updates to absent receivers are stored and
    resent (§3.1), and a delivery the plan drops is parked for the next
    pass.  Draws follow the engine's order: resends first, then sends.
    A ``preference`` vector ``v`` replaces the pulled rows' teleport
    ``1-d`` with ``(1-d)·N·v`` (``v`` normalized to unit mass).
    """
    n = graph.num_nodes
    ws = EdgeWorkspace.from_graph(graph)
    shift = np.zeros(n)
    if preference is not None:
        v = np.asarray(preference, dtype=np.float64)
        shift = (1.0 - damping) * n * (v / v.sum()) - (1.0 - damping)
    src, dst = ws.src, ws.dst
    cross = assignment[src] != assignment[dst]
    remote_outdeg = np.bincount(src[cross], minlength=n)
    rank = np.ones(n)
    history: List[PassStats] = []
    churn = availability is not None or fault_plan is not None
    if not churn:
        last_sent = rank.copy()
        for t in range(max_passes):
            new = ws.pull(last_sent, damping)
            new += shift
            err = _rel_change(rank, new)
            active = err > epsilon
            last_sent[active] = new[active]
            rank = new
            history.append(PassStats(
                t, float(err.max()), int(active.sum()),
                int(remote_outdeg[active].sum()), 0, num_peers, n,
            ))
            if not active.any():
                break
        return _report(rank, history, converged=not history[-1].active_documents)

    delivered = rank[src]
    pending = np.zeros(src.size, dtype=bool)
    pending_val = np.zeros(src.size)
    dirty = np.zeros(n, dtype=bool)
    converged = False
    for t in range(max_passes):
        live_peer = (
            np.ones(num_peers, dtype=bool) if availability is None
            else np.asarray(availability.sample(t), dtype=bool)
        )
        if not live_peer.any():
            history.append(PassStats(t, 0.0, 0, 0, int(pending.sum()), 0, 0))
            continue
        live = live_peer[assignment]
        resend = pending & live[src] & live[dst]
        if fault_plan is not None:
            cand = np.flatnonzero(resend)
            resend[cand[~fault_plan.edge_delivery_mask(t, cand.size)]] = False
        n_resent = int(resend.sum())
        delivered[resend] = pending_val[resend]
        pending[resend] = False
        dirty[dst[resend]] = True

        new = ws.pull_edges(delivered, damping)
        new += shift
        new[~live] = rank[~live]
        err = _rel_change(rank, new)
        err[~live] = 0.0
        dirty[live] = False
        active = live & (err > epsilon)
        send = active[src]
        deliver = send & live[dst]
        defer = send & ~live[dst]
        if fault_plan is not None:
            lossy = np.flatnonzero(deliver & cross)
            lost = lossy[~fault_plan.edge_delivery_mask(t, lossy.size)]
            deliver[lost] = False
            pending_val[lost] = new[src[lost]]
            pending[lost] = True
            pending[deliver] = False
        delivered[deliver] = new[src[deliver]]
        dirty[dst[deliver]] = True
        pending_val[defer] = new[src[defer]]
        pending[defer] = True
        rank = new
        history.append(PassStats(
            t, float(err.max()), int(active.sum()),
            int((deliver & cross).sum()) + n_resent, int(defer.sum()),
            int(live_peer.sum()), int(live.sum()),
        ))
        if not active.any() and not pending.any() and not dirty.any():
            converged = True
            break
    return _report(rank, history, converged=converged)


def _report(rank: np.ndarray, history: List[PassStats], *, converged: bool) -> OracleReport:
    return OracleReport(
        ranks=rank,
        passes=len(history),
        converged=converged,
        total_messages=sum(p.messages for p in history),
        history=history,
    )
