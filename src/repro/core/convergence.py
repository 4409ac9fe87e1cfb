"""Per-pass convergence bookkeeping for the distributed engines.

The paper reports several quantities per run — passes to convergence
(Table 1), message totals (Table 3), and error-versus-reference
distributions (Table 2).  :class:`ConvergenceTracker` accumulates the
per-pass series once so every experiment reads from the same record,
and :class:`PassStats`/:class:`RunReport` are the frozen result types
the engines hand back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = ["PassStats", "RunReport", "ConvergenceTracker"]


@dataclass(frozen=True)
class PassStats:
    """Statistics of a single simulation pass.

    Attributes
    ----------
    pass_index:
        0-based pass number.
    max_rel_change:
        Maximum per-document relative change among documents that
        recomputed this pass (the paper's convergence measure).
    active_documents:
        Documents whose change exceeded ε and therefore sent updates.
    messages:
        Network (cross-peer) update messages generated this pass,
        including store-and-resend deliveries.
    deferred_messages:
        In a pass with live peers, the updates newly stored this pass
        because their receiving peer was absent (§3.1).  In a skipped
        pass with every peer down, the store's backlog: the updates
        still owed.
    live_peers:
        Number of peers present during the pass.
    computed_documents:
        Documents that recomputed (i.e. reside on live peers).
    """

    pass_index: int
    max_rel_change: float
    active_documents: int
    messages: int
    deferred_messages: int
    live_peers: int
    computed_documents: int


@dataclass(frozen=True)
class RunReport:
    """Aggregate outcome of a distributed pagerank run.

    Attributes
    ----------
    ranks:
        Final per-document ranks (``R_d`` in the paper's notation).
    passes:
        Passes executed until convergence (or budget exhaustion).
    converged:
        True if the strong criterion held: a pass in which every
        computed document changed by less than ε and no stored updates
        remained undelivered.
    total_messages:
        Total cross-peer update messages over the whole run.
    history:
        Per-pass statistics (empty if tracking was disabled).
    epsilon:
        The convergence threshold the run used.
    diagnostics:
        ``None`` for a normal run.  When a faulted run is aborted by
        the residual-stagnation detector this carries the
        :class:`repro.faults.FaultDiagnostics` report (black-holed
        links, undelivered update mass) explaining *why* convergence
        was unreachable.
    """

    ranks: np.ndarray
    passes: int
    converged: bool
    total_messages: int
    history: tuple
    epsilon: float
    diagnostics: Optional[object] = None

    @property
    def messages_per_document(self) -> float:
        """Average update messages per document (Table 3's per-node
        metric, which the paper uses as its size-independent measure)."""
        n = self.ranks.size
        return self.total_messages / n if n else 0.0

    def messages_by_pass(self) -> np.ndarray:
        """Per-pass message counts as an array (empty if untracked)."""
        return np.array([p.messages for p in self.history], dtype=np.int64)

    def max_change_by_pass(self) -> np.ndarray:
        """Per-pass max relative change (empty if untracked)."""
        return np.array([p.max_rel_change for p in self.history], dtype=np.float64)

    def bytes_by_pass(self, *, message_size_bytes: int = 24) -> np.ndarray:
        """Per-pass network bytes under the paper's 24-byte message
        accounting (empty if untracked) — the bandwidth-over-time
        series the §4.6.1 transfer model consumes."""
        return self.messages_by_pass() * int(message_size_bytes)


class ConvergenceTracker:
    """Mutable accumulator the engines feed one :class:`PassStats` per
    pass; converts to the immutable :class:`RunReport` at the end.

    Parameters
    ----------
    epsilon:
        Convergence threshold, recorded in the report.
    keep_history:
        When false, only totals are kept (saves memory on
        multi-thousand-pass full-scale runs).
    """

    def __init__(self, epsilon: float, *, keep_history: bool = True) -> None:
        self.epsilon = float(epsilon)
        self.keep_history = keep_history
        self.total_messages = 0
        self.passes = 0
        self._history: List[PassStats] = []

    def record(self, stats: PassStats) -> None:
        """Add one pass's statistics."""
        self.passes += 1
        self.total_messages += stats.messages
        if self.keep_history:
            self._history.append(stats)

    def finish(
        self, ranks: np.ndarray, converged: bool, diagnostics=None
    ) -> RunReport:
        """Freeze into a :class:`RunReport`."""
        return RunReport(
            ranks=ranks,
            passes=self.passes,
            converged=converged,
            total_messages=self.total_messages,
            history=tuple(self._history),
            epsilon=self.epsilon,
            diagnostics=diagnostics,
        )
