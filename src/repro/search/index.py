"""Distributed inverted keyword index over the DHT (paper §2.4.2).

Keyword search on DHT systems uses a distributed index: the index
entry for a keyword lives on the peer that owns the keyword's GUID and
points to every document containing the keyword.  The paper's addition
is an extra column: each posting also stores the document's *pagerank*,
kept current by index-update messages sent whenever a document's
pagerank (re)converges — which is what lets any single peer sort its
hit list by global importance without further communication.

:class:`DistributedIndex` implements that structure as one CSR over
terms: term ``t``'s posting list is ``docs[indptr[t]:indptr[t + 1]]``,
kept sorted by descending pagerank (ties by doc id, so results are
deterministic) because every search variant consumes it in that order.
The pagerank column is the index's rank vector gathered at those docs.
A bulk refresh re-sorts every list with one sort of packed
``(term, rank position)`` keys and prices itself with one gather over
a per-document count of index peers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.p2p.guid import guid_of
from repro.search.corpus import Corpus

__all__ = ["PostingList", "DistributedIndex"]


@dataclass
class PostingList:
    """Index entry for one term: documents + their pageranks.

    ``docs``/``ranks`` are parallel arrays sorted by descending rank
    (doc id ascending among equal ranks).
    """

    term: int
    docs: np.ndarray
    ranks: np.ndarray

    def __len__(self) -> int:
        return self.docs.size

    def top_fraction(self, fraction: float, *, min_forward: int) -> np.ndarray:
        """The paper's §2.4.3 forwarding rule: the top ``fraction`` of
        hits by pagerank — unless that would be fewer than
        ``min_forward`` documents, in which case *all* hits are
        forwarded (the simulation artifact called out in Table 6's
        discussion; the paper used a threshold of 20)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        k = int(np.ceil(self.docs.size * fraction))
        if k < min_forward:
            return self.docs.copy()
        return self.docs[:k].copy()


def _term_peer(term: int, num_peers: int) -> int:
    return guid_of(str(term), namespace="term") % num_peers


class DistributedIndex:
    """Term-partitioned inverted index with a pagerank column.

    Parameters
    ----------
    corpus:
        The document corpus to index.
    ranks:
        Per-document pageranks (what the §2.4.2 index-update messages
        deposited).
    num_peers:
        Number of index peers; terms are assigned to peers by hashing
        the term id (consistent with a DHT's GUID ownership without
        requiring a full ring here).

    Notes
    -----
    The index tracks ``index_update_messages``: one message per
    document per call to :meth:`update_rank`, plus the initial bulk
    load (one per (term, doc) posting), so traffic experiments can
    account for index maintenance if they choose to.

    A refresh or update replaces the doc column rather than writing
    into it, so a :class:`PostingList` taken earlier keeps its contents.
    """

    def __init__(self, corpus: Corpus, ranks: np.ndarray, num_peers: int) -> None:
        if num_peers < 1:
            raise ValueError(f"num_peers must be >= 1, got {num_peers}")
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.shape != (corpus.num_documents,):
            raise ValueError(
                f"ranks must have shape ({corpus.num_documents},), got {ranks.shape}"
            )
        self.corpus = corpus
        self.num_peers = int(num_peers)
        self._ranks = ranks.copy()

        n = corpus.num_documents
        lengths = np.fromiter((t.size for t in corpus.doc_terms), np.int64, count=n)
        pair_doc = np.repeat(np.arange(n, dtype=np.int64), lengths)
        pair_term = np.concatenate(corpus.doc_terms, dtype=np.int32, casting="same_kind")
        counts = np.bincount(pair_term, minlength=corpus.vocab_size)
        self._indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._term = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
        self._docs = self._rank_sorted(pair_term, pair_doc)
        self._peer = np.array(
            [_term_peer(t, self.num_peers) for t in range(counts.size)], dtype=np.int64
        )
        # Distinct index peers per document: sort the (doc, peer) keys
        # and count the first of each run.
        key = pair_doc * self.num_peers
        key += self._peer[pair_term]
        del pair_doc, pair_term
        key.sort()
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        self._doc_peers = np.bincount(key[first] // self.num_peers, minlength=n)
        self.index_update_messages = int(self._docs.size)

    # ------------------------------------------------------------------
    def _rank_sorted(self, terms: np.ndarray, docs: np.ndarray) -> np.ndarray:
        """The docs of the ``(terms, docs)`` postings, ordered by term,
        then descending rank, then ascending doc id: one stable sort of
        the documents by rank, then one sort of packed
        ``term * N + rank position`` keys."""
        n = self._ranks.size
        order = np.argsort(-self._ranks, kind="stable")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n, dtype=np.int64)
        key = terms * np.int64(n)
        key += position[docs]
        key.sort()
        np.remainder(key, n, out=key)
        return order[key]

    # ------------------------------------------------------------------
    def peer_of_term(self, term: int) -> int:
        """Index peer owning ``term`` (GUID-hash partitioning)."""
        if 0 <= term < self._peer.size:
            return int(self._peer[term])
        return _term_peer(term, self.num_peers)

    def postings(self, term: int) -> PostingList:
        """The posting list for ``term`` (empty list if unseen).

        ``docs`` is a view into the index's doc column; ``ranks`` is
        gathered from the current rank vector."""
        if 0 <= term < self._peer.size:
            docs = self._docs[self._indptr[term] : self._indptr[term + 1]]
        else:
            docs = self._docs[:0]
        return PostingList(term=term, docs=docs, ranks=self._ranks[docs])

    def rank_of(self, doc: int) -> float:
        """Pagerank currently recorded for ``doc``."""
        return float(self._ranks[doc])

    def ranks_of(self, docs: np.ndarray) -> np.ndarray:
        """Vectorized rank lookup."""
        return self._ranks[np.asarray(docs, dtype=np.int64)]

    def update_rank(self, doc: int, rank: float) -> None:
        """Apply a §2.4.2 index-update message: a document's pagerank
        changed; every posting list containing it re-sorts, in a copy
        of the doc column."""
        if not 0 <= doc < self.corpus.num_documents:
            raise IndexError(f"doc {doc} out of range")
        self._ranks[doc] = float(rank)
        docs = self._docs.copy()
        for term in self.corpus.doc_terms[doc].tolist():
            lo, hi = self._indptr[term], self._indptr[term + 1]
            segment = docs[lo:hi]
            segment[:] = segment[np.lexsort((segment, -self._ranks[segment]))]
        self._docs = docs
        self.index_update_messages += 1

    def index_peers_of_doc(self, doc: int) -> set:
        """The index peers holding postings that mention ``doc``.

        One §2.4.2 index-update message must reach each of them when
        the document's pagerank changes — the per-document maintenance
        cost the traffic analysis of index upkeep uses.
        """
        if not 0 <= doc < self.corpus.num_documents:
            raise IndexError(f"doc {doc} out of range")
        return set(self._peer[self.corpus.doc_terms[doc]].tolist())

    def maintenance_messages(self, changed_docs) -> int:
        """Total index-update messages to refresh the pagerank column
        for ``changed_docs`` (one message per affected index peer per
        document)."""
        docs = np.asarray(changed_docs, dtype=np.int64)
        if docs.size and not (
            0 <= docs.min() and docs.max() < self.corpus.num_documents
        ):
            raise IndexError("changed_docs holds a doc out of range")
        return int(self._doc_peers[docs].sum())

    def refresh_ranks(self, ranks: np.ndarray) -> int:
        """Apply a bulk batch of §2.4.2 index-update messages.

        The serving layer periodically republishes the background
        computation's current rank vector into the index (the paper's
        "index update messages are sent" moment); this is the bulk
        equivalent of calling :meth:`update_rank` per changed document,
        re-sorting the whole doc column with one packed sort instead of
        once per change.

        Returns the number of index-update messages charged (one per
        affected index peer per changed document), also added to
        :attr:`index_update_messages`.  A no-change refresh costs
        nothing and leaves the index untouched.
        """
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.shape != self._ranks.shape:
            raise ValueError(
                f"ranks must have shape {self._ranks.shape}, got {ranks.shape}"
            )
        changed = np.flatnonzero(ranks != self._ranks)
        if changed.size == 0:
            return 0
        self._ranks = ranks.copy()
        self._docs = self._rank_sorted(self._term, self._docs)
        messages = self.maintenance_messages(changed)
        self.index_update_messages += messages
        return messages

    def sort_docs_by_rank(self, docs: np.ndarray) -> np.ndarray:
        """Sort arbitrary doc ids by descending recorded pagerank."""
        docs = np.asarray(docs, dtype=np.int64)
        r = self._ranks[docs]
        return docs[np.lexsort((docs, -r))]
