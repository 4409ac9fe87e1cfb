"""Peer state machine (paper Fig. 1).

Each :class:`Peer` is "a simple state machine exchanging messages"
(§2.3): it stores a subset of the documents, recomputes their ranks
from the contributions it has *received*, and stages update messages
for out-links on other peers whenever a document's relative change
exceeds ε.  Intra-peer link updates are applied by publishing the new
value locally — visible to co-located consumers next pass without any
network message — but note that, per the pseudocode, publishing too is
gated by ε: a document that did not change significantly exposes its
previous value everywhere.

The asynchronous runtime (:mod:`repro.runtime`) runs one :class:`Peer`
per node on the per-document path (:meth:`Peer.recompute_document`,
:meth:`Peer.receive` on :class:`~repro.p2p.messages.PagerankUpdate`
objects into :attr:`Peer.remote_values`), where batches are a handful
of updates; its WAL, snapshots and sanitizer record this state.  The
pass simulator (:mod:`repro.simulation.engine`) builds no peers: it
keeps every peer's documents' state and its network's message state in
arrays of its own.  :meth:`Peer.compute_pass` is the per-peer form of
the simulator's pass step — one vectorized ε-mask over the peer's rows
— which a property sweep checks the simulator against.  Every staging
(a recompute's publish, a pass's publishes, the crash-recovery
republishes) goes document by document through one helper that stages
an update per remote out-link, in out-link order, into the
:class:`~repro.p2p.messages.Outbox`'s per-destination batches.  The
differential suites cross-validate the simulator and the runtime
against the vectorized engine bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.kernels import relative_change
from repro.graphs.linkgraph import LinkGraph
from repro.p2p.messages import Outbox, PagerankUpdate

__all__ = ["Peer", "PassOutcome"]


@dataclass(frozen=True)
class PassOutcome:
    """What one peer did in one compute pass.

    Attributes
    ----------
    active_documents:
        Local documents whose relative change exceeded ε (and hence
        published/sent updates).
    max_rel_change:
        Largest relative change among local documents this pass.
    """

    active_documents: int
    max_rel_change: float


class Peer:
    """One peer: local documents, received contributions, outbox.

    Parameters
    ----------
    peer_id:
        Dense peer identifier.
    documents:
        The document ids this peer stores.
    graph:
        The global link graph.  A real peer only knows its documents'
        links; the simulator hands every peer the same immutable graph
        purely as the container of that local information (out-links of
        local docs, in-links needed for recompute).
    init_rank:
        Initial rank; a global protocol constant, so contributions from
        documents never heard from are assumed to be at it.
    honor_versions:
        When true (default) reordered stale updates are discarded using
        the per-source version numbers; false reproduces the paper's
        unversioned wire format, where the last arrival wins even if it
        is older (the reordering hazard the ablation benchmarks
        measure).
    """

    def __init__(
        self,
        peer_id: int,
        documents: Iterable[int],
        graph: LinkGraph,
        *,
        init_rank: float = 1.0,
        honor_versions: bool = True,
    ) -> None:
        self.peer_id = int(peer_id)
        self.documents = np.asarray(sorted(int(d) for d in documents), dtype=np.int64)
        self.graph = graph
        self.init_rank = float(init_rank)
        self.honor_versions = bool(honor_versions)
        self._local = set(int(d) for d in self.documents)
        #: Current rank of each local document, keyed in
        #: :attr:`documents` order (:meth:`compute_pass` reads the values
        #: as one array).
        self.rank: Dict[int, float] = {int(d): self.init_rank for d in self.documents}
        #: Last value each local document exposed to its consumers.
        self.published: Dict[int, float] = dict(self.rank)
        #: Last received value per remote in-linking document (the
        #: runtime's receive path; the pass simulator keeps its peers'
        #: received values in one table of its own).
        self.remote_values: Dict[int, float] = {}
        #: Version of the value held in :attr:`remote_values`.
        self._remote_versions: Dict[int, int] = {}
        #: Per-local-document publish sequence numbers.
        self._publish_version: Dict[int, int] = {}
        self.outbox = Outbox(self.peer_id)
        # Reciprocal out-degrees (one array shared by every peer of the
        # graph), multiplied rather than divided so the floating-point
        # operations match the vectorized engine bit for bit (the
        # integration tests assert exact rank equality).
        self._inv_out = graph.inv_out_degrees()

    # ------------------------------------------------------------------
    def owns(self, doc: int) -> bool:
        """True if this peer stores ``doc``."""
        return doc in self._local

    def visible_value(self, doc: int) -> float:
        """The value of ``doc`` as this peer currently sees it."""
        if doc in self._local:
            return self.published[doc]
        return self.remote_values.get(doc, self.init_rank)

    def receive(self, update: PagerankUpdate) -> bool:
        """Fold one received update into local knowledge.

        Updates carry per-source versions; a reordered older update is
        discarded rather than overwriting fresher knowledge, and a
        replayed *equal*-version update (a §3.1 resend, a reliability-
        layer retransmit, or an adversarial replay) is suppressed
        without touching state — delivery is idempotent (the wire
        provides no ordering or at-most-once guarantee — see
        :class:`repro.p2p.messages.PagerankUpdate`).

        Returns True if the update mutated local knowledge, False if it
        was suppressed as stale or duplicate (the reliable-delivery
        layer counts suppressions).
        """
        if self.honor_versions:
            held = self._remote_versions.get(update.source_doc, -1)
            if update.version < held:
                return False
            if update.version == held and update.source_doc in self.remote_values:
                return False
            self._remote_versions[update.source_doc] = update.version
        self.remote_values[update.source_doc] = update.value
        return True

    def receive_batch(self, updates: Iterable[PagerankUpdate]) -> int:
        """Receive many updates in order; returns how many mutated state."""
        return sum(self.receive(u) for u in updates)

    # ------------------------------------------------------------------
    def compute_pass(
        self,
        new_ranks: np.ndarray,
        epsilon: float,
        peer_of: np.ndarray,
    ) -> PassOutcome:
        """Take one pass's recomputed ranks; stage updates for changes > ε.

        Two-phase: the caller computed every local document from the
        *previous* published values (synchronous-pass semantics,
        matching the vectorized engine), then the significant ones
        publish together.

        Parameters
        ----------
        new_ranks, epsilon:
            New rank of every local document, in :attr:`documents`
            order (what :meth:`_fresh_rank` gives each), and ε.
        peer_of:
            Document → peer array, used to split each document's
            out-links into local (free) and remote (message) targets.

        Returns
        -------
        PassOutcome
        """
        docs_arr = self.documents
        old = np.fromiter(self.rank.values(), np.float64, docs_arr.size)
        rel = relative_change(old, new_ranks)
        max_change = float(rel.max()) if docs_arr.size else 0.0
        # Sync the rank dict only where the bits actually changed.
        changed = np.flatnonzero(new_ranks != old)
        self.rank.update(zip(docs_arr[changed].tolist(), new_ranks[changed].tolist()))
        active = np.flatnonzero(rel > epsilon)
        self._publish(docs_arr[active], new_ranks[active], peer_of)
        return PassOutcome(active_documents=int(active.size), max_rel_change=max_change)

    # ------------------------------------------------------------------
    def _fresh_rank(self, doc: int, damping: float) -> float:
        """Recompute ``doc``'s rank from currently visible values.

        :meth:`visible_value` inlined over the in-links and their
        weights, each gathered once.  The sum runs left to right from
        0.0 in in-link order, the engines' rounding (``np.dot``, and
        ``sum()`` from CPython 3.12, round differently).
        """
        srcs = self.graph.in_links(doc)
        local, published = self._local, self.published
        heard, init = self.remote_values.get, self.init_rank
        total = 0.0
        for src, weight in zip(srcs.tolist(), self._inv_out[srcs].tolist()):
            total += (published[src] if src in local else heard(src, init)) * weight
        return (1.0 - damping) + damping * total

    def _publish(self, docs: np.ndarray, values: np.ndarray, peer_of: np.ndarray) -> None:
        """Publish ``values`` for local ``docs`` (ascending): expose each
        to co-located consumers and stage its remote out-link updates at
        its bumped publish version."""
        for doc, value in zip(docs.tolist(), values.tolist()):
            self.published[doc] = value
            self._stage_updates(doc, value, peer_of)

    def _stage_updates(self, doc: int, value: float, peer_of: np.ndarray) -> None:
        """Publish-stage one document: bump its publish version and
        stage an update per remote out-link."""
        version = self._publish_version.get(doc, 0) + 1
        self._publish_version[doc] = version
        self._stage(doc, value, version, peer_of)

    def _stage(
        self,
        doc: int,
        value: float,
        version: int,
        peer_of: np.ndarray,
        only_to: Optional[int] = None,
    ) -> int:
        """Stage ``doc``'s update at ``value`` and ``version`` for every
        out-link target stored on another peer (only on ``only_to`` when
        given), in out-link order.  Returns the number staged."""
        staged = 0
        for target in self.graph.out_links(doc).tolist():
            dest = int(peer_of[target])
            keep = dest != self.peer_id if only_to is None else dest == only_to
            if keep:
                self.outbox.stage(dest, PagerankUpdate(target, doc, value, version))
                staged += 1
        return staged

    def recompute_document(
        self,
        doc: int,
        damping: float,
        epsilon: float,
        peer_of: np.ndarray,
        *,
        gate: str = "published",
    ) -> Tuple[float, bool]:
        """Event-driven single-document recompute (Fig. 1's message
        handler): recompute ``doc`` now, and if the relative change
        exceeds ε publish it and stage updates for remote out-links.

        Returns ``(relative_change, published)``.  Used by the
        asynchronous runtime, where recomputation is triggered by
        received messages rather than by a global pass.

        ``gate`` selects what the change is measured against:

        * ``"published"`` (default) — the last value this document
          actually announced.  Sub-ε changes then *accumulate* until
          they cross ε, so consumers are never more than ε-stale.
        * ``"rank"`` — the last computed rank, the literal reading of
          Figure 1's ``relerr = abs(oldrank - newrank)/newrank``.
          Under fine-grained asynchronous interleaving many tiny
          arrivals can each stay below ε while their sum drifts
          arbitrarily far from what consumers saw — a protocol hazard
          this reproduction surfaced; see DESIGN.md.
        """
        if doc not in self._local:
            raise KeyError(f"peer {self.peer_id} does not store document {doc}")
        if gate not in ("published", "rank"):
            raise ValueError(f"gate must be 'published' or 'rank', got {gate!r}")
        new = self._fresh_rank(doc, damping)
        old = self.published[doc] if gate == "published" else self.rank[doc]
        # The engines' rule (``relative_change``) on one document: a
        # drop to exactly 0 is an infinite change, so it publishes.
        if new:
            rel = abs((old - new) / new)
        else:
            rel = 0.0 if old == new else math.inf
        self.rank[doc] = new
        if rel > epsilon:
            self.published[doc] = new
            self._stage_updates(doc, new, peer_of)
            return rel, True
        return rel, False

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def crash_volatile(self) -> int:
        """Crash-with-state-loss: wipe the outbox (volatile memory),
        keeping rank/published/version state (persistent storage
        survives a crash).  Returns the number of updates destroyed, for
        the fault layer's state-loss accounting.
        """
        return self.outbox.wipe()

    def _republish(self, peer_of: np.ndarray, only_to: Optional[int] = None) -> int:
        """Stage every local document's persisted published value at its
        current publish version, documents ascending (documents never
        published past the globally known initial value are skipped)."""
        staged = 0
        for doc in self.documents.tolist():
            version = self._publish_version.get(doc, 0)
            if version:
                staged += self._stage(doc, self.published[doc], version, peer_of, only_to)
        return staged

    def reboot_republish(self, peer_of: np.ndarray) -> int:
        """Crash recovery: re-announce every local document's persisted
        published value to its remote consumers.

        A rebooted peer cannot know which of its staged or in-flight
        sends survived the crash, so it conservatively replays the
        current value at its *current* publish version.  Receivers that
        already saw it suppress the equal-version replay (delivery is
        idempotent — :meth:`receive`); any consumer the crash robbed of
        an update applies it, healing the permanent staleness a bare
        wipe would leave.  Returns the number of updates staged.
        """
        return self._republish(peer_of)

    def republish_to(self, dest_peer: int, peer_of: np.ndarray) -> int:
        """Anti-entropy catch-up toward one recovered neighbor: stage
        the current published value of every local document that links
        into ``dest_peer``'s holdings, at the current publish version.

        The directional counterpart of :meth:`reboot_republish` — after
        a supervised restart the *recovered* peer re-announces its own
        values, while its live neighbors call this so the recovered
        peer's view of *them* is refreshed too (it may have crashed
        before their latest updates arrived, and those flights may have
        been abandoned meanwhile — docs/PROTOCOL.md §15.4).  Replays
        are equal-version idempotent at the receiver.  Returns the
        number of updates staged.
        """
        return self._republish(peer_of, only_to=dest_peer)
