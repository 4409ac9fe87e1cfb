"""Peer state machine for the protocol-level simulator (paper Fig. 1).

Each :class:`Peer` is "a simple state machine exchanging messages"
(§2.3): it stores a subset of the documents, recomputes their ranks
from the contributions it has *received*, and stages update messages
for out-links on other peers whenever a document's relative change
exceeds ε.  Intra-peer link updates are applied by publishing the new
value locally — visible to co-located consumers next pass without any
network message — but note that, per the pseudocode, publishing too is
gated by ε: a document that did not change significantly exposes its
previous value everywhere.

A peer works at two grains.  The pass simulator
(:mod:`repro.simulation.engine`) pulls every document's new rank at
once and hands each peer its rows: :meth:`Peer.compute_pass` gates
publishes with one vectorized ε-mask and stages
the whole pass's remote updates as :class:`~repro.p2p.messages.
UpdateColumns`; :meth:`Peer.receive_batch` folds such columns in with
a vectorized version dedup that reproduces the one-at-a-time
:meth:`Peer.receive` exactly.  The asynchronous runtime
(:mod:`repro.runtime`) drives the per-document path instead
(:meth:`Peer.recompute_document`, :meth:`Peer.receive` on
:class:`~repro.p2p.messages.PagerankUpdate` objects), where batches are
a handful of updates and per-call array overhead would dominate.  Every
multi-document staging (a pass's publishes, the crash-recovery
republishes) goes through one columnar out-link helper; a single
document stages its few out-links with a plain loop.  The differential
suites cross-validate both grains against the vectorized engine bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.kernels import expand_rows, relative_change
from repro.graphs.linkgraph import LinkGraph
from repro.p2p.messages import Outbox, PagerankUpdate, UpdateColumns

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
    staged_updates:
        Update messages staged for other peers.
    published_docs:
        The documents that published this pass.  The simulator needs
        them to mark *co-located* link targets as awaiting a recompute
        (remote targets are marked at delivery time instead).
    """

    active_documents: int
    max_rel_change: float
    staged_updates: int
    published_docs: Tuple[int, ...] = ()


#: Shortest run :meth:`Peer.receive_batch` folds with the columnar
#: receive.  Below it the fold's fixed cost of a dozen-odd array calls
#: exceeds the per-update loop's (docs/PERFORMANCE.md, "Faulted
#: exchange").
_COLUMNAR_MIN_ROWS = 16


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
        #: Last received value per remote in-linking document.
        self.remote_values: Dict[int, float] = {}
        #: Version of the value held in :attr:`remote_values`.
        self._remote_versions: Dict[int, int] = {}
        #: Per-local-document publish sequence numbers.
        self._publish_version: Dict[int, int] = {}
        #: Stored updates awaiting absent receivers: peer -> updates.
        self.deferred: Dict[int, UpdateColumns] = {}
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

    def receive_batch(
        self,
        updates: Union[UpdateColumns, Iterable[PagerankUpdate]],
        out: Optional[np.ndarray] = None,
    ) -> int:
        """Receive many updates in order; returns how many mutated state.

        Columns of at least :data:`_COLUMNAR_MIN_ROWS` rows are folded
        in with :meth:`_receive_columns`, which leaves exactly the state
        the one-at-a-time :meth:`receive` loop would; shorter runs take
        that loop.  ``out``, if given, is a boolean array with one entry
        per update; it is set to which updates mutated state.
        """
        columnar = isinstance(updates, UpdateColumns)
        if columnar and len(updates) >= _COLUMNAR_MIN_ROWS:
            return self._receive_columns(updates, out)
        applied = 0
        for i, u in enumerate(updates):
            ok = self.receive(u)
            applied += ok
            if out is not None:
                out[i] = ok
        return applied

    def _receive_columns(
        self, updates: UpdateColumns, out: Optional[np.ndarray] = None
    ) -> int:
        """Vectorized :meth:`receive` over a run of updates.

        Sequentially, an update applies iff its version exceeds both the
        held version floor and every earlier version from the same
        source in the run (an applied update raises the floor to its own
        version; a rejected one is already at or below it).  Rows are
        grouped by source with a stable sort, the floor is a running
        maximum within each group, and the last applied row per source
        is what the loop would leave behind.
        """
        n = len(updates)
        if out is not None:
            out[:] = False
        if n == 0:
            return 0
        order = np.argsort(updates.source, kind="stable")
        src = updates.source[order]
        repeat = src[1:] == src[:-1]  # row i + 1 repeats row i's source
        repeats = bool(repeat.any())
        if self.honor_versions:
            ver = updates.version[order]
            # An update applies iff its version exceeds the floor:
            # :meth:`receive` rejects ``version < held`` and, once a
            # value is held, ``version == held``.
            held, heard = self._remote_versions.get, self.remote_values
            floor = np.array(
                [held(s, -1) - (s not in heard) for s in src.tolist()], dtype=np.int64
            )
            if repeats:
                # Running maximum within each source group, seeded with
                # the group's floor: offset group g by g * span so one
                # global maximum.accumulate never carries across groups.
                head = np.empty(n, dtype=bool)
                head[0] = True
                np.logical_not(repeat, out=head[1:])
                lo = min(int(ver.min()), int(floor.min()))
                span = max(int(ver.max()), int(floor.max())) - lo + 1
                offset = (np.cumsum(head) - 1) * span - lo
                key = ver + offset
                seed = floor + offset
                running = np.maximum.accumulate(np.maximum(key, seed))
                floor = np.empty(n, dtype=np.int64)
                floor[1:] = running[:-1]
                floor[head] = seed[head]
                ver = key
            rows = np.flatnonzero(ver > floor)
            applied = int(rows.size)
            if applied == 0:
                return 0
        else:
            applied = n
            rows = np.arange(n)
        if out is not None:
            out[order[rows]] = True
        if repeats:
            # Keep each source's last applied row.
            g = src[rows]
            last = np.empty(rows.size, dtype=bool)
            last[-1] = True
            np.not_equal(g[1:], g[:-1], out=last[:-1])
            rows = rows[last]
        win_src = src[rows]
        win = order[rows]
        win_val = updates.value[win]
        self.remote_values.update(zip(win_src.tolist(), win_val.tolist()))
        if self.honor_versions:
            win_ver = updates.version[win]
            self._remote_versions.update(zip(win_src.tolist(), win_ver.tolist()))
        return applied

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
        published = docs_arr[active]
        staged = self._publish(published, new_ranks[active], peer_of) if active.size else 0
        return PassOutcome(
            active_documents=int(active.size),
            max_rel_change=max_change,
            staged_updates=staged,
            published_docs=tuple(published.tolist()),
        )

    # ------------------------------------------------------------------
    def _fresh_rank(self, doc: int, damping: float) -> float:
        """Recompute ``doc``'s rank from currently visible values."""
        total = 0.0
        for src in self.graph.in_links(doc):
            src = int(src)
            total += self.visible_value(src) * self._inv_out[src]
        return (1.0 - damping) + damping * total

    def _publish(self, docs: np.ndarray, values: np.ndarray, peer_of: np.ndarray) -> int:
        """Publish ``values`` for local ``docs`` (ascending): expose them
        to co-located consumers, bump each document's publish version
        and stage the remote out-link updates.  Returns the number
        staged."""
        keys = docs.tolist()
        self.published.update(zip(keys, values.tolist()))
        get = self._publish_version.get
        versions = [get(d, 0) + 1 for d in keys]
        self._publish_version.update(zip(keys, versions))
        return self._stage_out_links(
            docs, values, np.array(versions, dtype=np.int64), peer_of
        )

    def _stage_out_links(
        self,
        docs: np.ndarray,
        values: np.ndarray,
        versions: np.ndarray,
        peer_of: np.ndarray,
        *,
        only_to: Optional[int] = None,
    ) -> int:
        """Stage ``docs``' updates for every out-link target stored on
        another peer (only on ``only_to`` when given), as one run of
        columns: documents in the given order, each document's targets
        in out-link order.  Returns the number staged."""
        pos, lens = expand_rows(self.graph.indptr, docs)
        targets = self.graph.indices[pos]
        dest = peer_of[targets]
        keep = dest != self.peer_id if only_to is None else dest == only_to
        staged = int(np.count_nonzero(keep))
        if staged:
            self.outbox.stage_columns(
                dest[keep],
                UpdateColumns(
                    target=targets[keep],
                    source=np.repeat(docs, lens)[keep],
                    value=np.repeat(values, lens)[keep],
                    version=np.repeat(versions, lens)[keep],
                ),
            )
        return staged

    def _stage_updates(self, doc: int, value: float, peer_of: np.ndarray) -> int:
        """Publish-stage one document (the per-document path): bump its
        publish version and stage an update per remote out-link.

        The same staging as :meth:`_stage_out_links` for a single
        document, as a plain loop: a document has a handful of
        out-links, far too few to pay for array calls.
        """
        staged = 0
        version = self._publish_version.get(doc, 0) + 1
        self._publish_version[doc] = version
        for target in self.graph.out_links(doc).tolist():
            target_peer = int(peer_of[target])
            if target_peer != self.peer_id:
                self.outbox.stage(
                    target_peer,
                    PagerankUpdate(
                        target_doc=target,
                        source_doc=doc,
                        value=value,
                        version=version,
                    ),
                )
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
        rel = abs(old - new) / new if new != 0 else 0.0
        self.rank[doc] = new
        if rel > epsilon:
            self.published[doc] = new
            self._stage_updates(doc, new, peer_of)
            return rel, True
        return rel, False

    # ------------------------------------------------------------------
    # Store-and-resend support (§3.1)
    # ------------------------------------------------------------------
    def defer(
        self, dest_peer: int, updates: Union[UpdateColumns, Sequence[PagerankUpdate]]
    ) -> None:
        """Store updates whose receiver is currently absent.

        Only the newest value per (source, target) pair is kept — an
        older stored update is obsolete the moment a fresh one exists.
        """
        fresh = (
            updates
            if isinstance(updates, UpdateColumns)
            else UpdateColumns.from_updates(updates)
        )
        store = self.deferred.get(dest_peer)
        if store is not None and len(store):
            n = self.graph.num_nodes
            stale = np.isin(
                store.source * n + store.target, fresh.source * n + fresh.target
            )
            fresh = UpdateColumns.concat([store.take(~stale), fresh])
        self.deferred[dest_peer] = fresh

    def take_deferred_columns(self, dest_peer: int) -> UpdateColumns:
        """Pop all stored updates for a peer that has reappeared."""
        return self.deferred.pop(dest_peer, None) or UpdateColumns.empty()

    def take_deferred(self, dest_peer: int) -> List[PagerankUpdate]:
        """:meth:`take_deferred_columns` as update objects."""
        return list(self.take_deferred_columns(dest_peer))

    @property
    def deferred_count(self) -> int:
        """Total stored updates across destinations (the §3.1 state
        bound: at most the sum of local documents' out-links)."""
        return sum(len(v) for v in self.deferred.values())

    def crash_volatile(self) -> int:
        """Crash-with-state-loss: wipe the outbox and the §3.1 deferred
        store (volatile memory), keeping rank/published/version state
        (persistent storage survives a crash).

        Distinct from a graceful departure, where deferred updates are
        preserved for resend on return.  Returns the number of updates
        destroyed, for the fault layer's state-loss accounting.
        """
        lost = self.outbox.wipe()
        lost += self.deferred_count
        self.deferred.clear()
        return lost

    def _republish(self, peer_of: np.ndarray, only_to: Optional[int] = None) -> int:
        """Stage every local document's persisted published value at its
        current publish version (documents never published past the
        globally known initial value are skipped)."""
        keys = self.documents.tolist()
        get = self._publish_version.get
        versions = np.array([get(d, 0) for d in keys], dtype=np.int64)
        announced = versions > 0
        docs = self.documents[announced]
        values = np.array(
            [self.published[d] for d in docs.tolist()], dtype=np.float64
        )
        return self._stage_out_links(
            docs, values, versions[announced], peer_of, only_to=only_to
        )

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

    # ------------------------------------------------------------------
    # Document migration (DHT re-homing support)
    # ------------------------------------------------------------------
    def surrender_documents(self, docs) -> Dict[int, tuple]:
        """Remove ``docs`` from this peer, returning their state.

        Used by the simulator's §3.1 re-homing: when this peer is
        declared long-term absent, the DHT's successor takes over its
        documents.  Returns ``{doc: (rank, published, publish_version)}``;
        the version counters travel with the state so versioned updates
        stay monotone across owners.
        """
        state: Dict[int, tuple] = {}
        moving = set(int(d) for d in docs)
        missing = moving - self._local
        if missing:
            raise KeyError(f"peer {self.peer_id} does not store {sorted(missing)}")
        # Sorted so the returned dict's order is canonical no matter how
        # the caller ordered ``docs`` — adopters insert in this order.
        for doc in sorted(moving):
            state[doc] = (
                self.rank.pop(doc),
                self.published.pop(doc),
                self._publish_version.pop(doc, 0),
            )
            self._local.discard(doc)
        self.documents = np.asarray(sorted(self._local), dtype=np.int64)
        return state

    def export_inlink_knowledge(self, docs) -> UpdateColumns:
        """Package this peer's view of ``docs``' in-link sources.

        A migrating document is worthless without the contribution
        values it was being computed from; re-homing sends these along
        as ordinary versioned updates so the new owner merges them
        under the standard newest-wins rule.  Sources this peer has
        never heard from are omitted (the receiver keeps its own view
        or the protocol initial value).
        """
        updates: List[PagerankUpdate] = []
        for doc in docs:
            doc = int(doc)
            for src in self.graph.in_links(doc):
                src = int(src)
                if src in self._local:
                    value = self.published[src]
                    version = self._publish_version.get(src, 0)
                elif src in self.remote_values:
                    value = self.remote_values[src]
                    version = self._remote_versions.get(src, 0)
                else:
                    continue
                updates.append(
                    PagerankUpdate(
                        target_doc=doc, source_doc=src, value=value, version=version
                    )
                )
        return UpdateColumns.from_updates(updates)

    def adopt_documents(self, state: Dict[int, tuple]) -> None:
        """Take over documents surrendered by another peer.

        ``state`` maps doc -> (rank, published, publish_version), the
        tuple :meth:`surrender_documents` produced.
        """
        for doc, (rank, published, version) in state.items():
            doc = int(doc)
            if doc in self._local:
                raise ValueError(f"peer {self.peer_id} already stores {doc}")
            self._local.add(doc)
            self.rank[doc] = float(rank)
            self.published[doc] = float(published)
            if version:
                self._publish_version[doc] = int(version)
        self.documents = np.asarray(sorted(self._local), dtype=np.int64)
        self.rank = {d: self.rank[d] for d in self.documents.tolist()}
