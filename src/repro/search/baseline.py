"""Baseline multi-word search: forward everything (paper §4.9).

The no-pagerank baseline Table 6 compares against: boolean multi-word
queries on a DHT index must ship the *entire* hit list from the peer
owning each term to the peer owning the next one, and finally ship the
whole result to the user.  Traffic is measured in document IDs moved,
matching the paper's metric.  Every query term is assumed to live on a
different peer (the paper's stated assumption), so every hop is a
network transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.search.index import DistributedIndex
from repro.search.query import Query

__all__ = [
    "SearchOutcome",
    "baseline_search",
    "intersect_sorted_by_rank",
    "order_terms",
]


@dataclass(frozen=True)
class SearchOutcome:
    """Result + traffic accounting of one query execution.

    Attributes
    ----------
    hits:
        Final result documents, sorted by descending pagerank.
    traffic_doc_ids:
        Total document IDs transferred peer-to-peer *and* back to the
        querying user (the paper's Table 6 unit).
    hop_sizes:
        Document IDs moved at each transfer, in order; the last entry
        is the return to the user.
    """

    hits: np.ndarray
    traffic_doc_ids: int
    hop_sizes: Tuple[int, ...]

    @property
    def num_hits(self) -> int:
        return int(self.hits.size)


def intersect_sorted_by_rank(
    index: DistributedIndex, current: np.ndarray, term: int
) -> np.ndarray:
    """AND the running result with a term's postings; re-sort by rank.

    The boolean operation each index peer performs on arrival of a
    forwarded hit set (§2.4.3).  ``current`` must hold distinct docs:
    every search passes a posting list or a prefix of a rank-sorted
    intersection, so the intersect skips re-uniquing both inputs.
    """
    postings = index.postings(term)
    merged = np.intersect1d(current, postings.docs, assume_unique=True)
    return index.sort_docs_by_rank(merged)


def order_terms(index: DistributedIndex, query: Query, route_order: str) -> tuple:
    """Resolve the term visiting order.

    ``"given"`` follows the query's own order (the paper routes to the
    peer owning "the first term in the query"); ``"rarest_first"`` is
    the classic IR optimisation of intersecting the smallest posting
    list first — since every hop ships the running set, starting from
    the rarest term minimises every subsequent transfer.  The result
    set is identical either way (AND is commutative); only traffic
    changes.
    """
    if route_order == "given":
        return query.terms
    if route_order == "rarest_first":
        return tuple(sorted(query.terms, key=lambda t: len(index.postings(t))))
    raise ValueError(
        f"route_order must be 'given' or 'rarest_first', got {route_order!r}"
    )


def baseline_search(
    index: DistributedIndex,
    query: Query,
    *,
    route_order: str = "given",
) -> SearchOutcome:
    """Execute a boolean AND query forwarding full hit lists.

    Hop ``i`` ships the entire running result to the peer owning term
    ``i+1``; the final hop ships the complete result to the user.
    ``route_order`` selects the term visiting order (see
    :func:`order_terms`).
    """
    terms = order_terms(index, query, route_order)
    hops: List[int] = []
    current = index.postings(terms[0]).docs.copy()
    for term in terms[1:]:
        hops.append(int(current.size))  # shipped to the next index peer
        current = intersect_sorted_by_rank(index, current, term)
    hops.append(int(current.size))  # shipped to the querying user
    current = index.sort_docs_by_rank(current)
    return SearchOutcome(
        hits=current,
        traffic_doc_ids=int(sum(hops)),
        hop_sizes=tuple(hops),
    )
