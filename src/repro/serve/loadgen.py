"""Seeded query load generation (paper §4.9 methodology).

The paper's search experiments draw synthetic queries from the 100
most frequent corpus terms; real query streams are additionally
*skewed* — a few popular queries repeat constantly (the property a
result cache exploits).  :class:`LoadGenerator` reproduces both: it
pre-generates a pool of distinct candidate queries from the corpus'
top terms (:func:`repro.search.query.generate_queries`) and draws each
arrival from a Zipf distribution over that pool, entering the system
at a uniformly drawn portal peer.

Two arrival disciplines (docs/SERVING.md):

* **open loop** — Poisson arrivals at a target QPS for a fixed
  duration, offered regardless of completions (the overload regime
  admission control exists for);
* **closed loop** — a fixed number of clients, each issuing its next
  query only when the previous one completes (plus think time), so
  offered load self-limits to capacity.

Everything is drawn from one seeded generator; a run is bitwise
reproducible given (corpus, seed).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro._util import as_generator
from repro._util.rng import SeedLike
from repro.search.corpus import Corpus
from repro.search.query import Query, generate_queries

__all__ = ["LoadGenerator", "QueryArrival"]


@dataclass(frozen=True)
class QueryArrival:
    """One offered query: when, what, and where it enters."""

    time: float
    query: Query
    portal_peer: int


class LoadGenerator:
    """Zipf-skewed query mix over a corpus' most frequent terms.

    Parameters
    ----------
    corpus:
        The indexed corpus (terms are drawn from its top pool).
    num_peers:
        Portal peers are drawn uniformly from ``range(num_peers)``.
    seed:
        Seeds query-pool generation and every subsequent draw.
    num_distinct:
        Size of the candidate query pool (distinct queries the stream
        can contain — the cache's working set).
    terms_per_query:
        Terms per query (paper: 2–3 word queries, Table 6).
    term_pool_size:
        Top-N most frequent terms queries are built from (paper: 100).
    zipf_exponent:
        Skew of query popularity; candidate ``i`` (0-based) is drawn
        with weight ``(i+1)**-s``.  0 is uniform.
    """

    def __init__(
        self,
        corpus: Corpus,
        num_peers: int,
        *,
        seed: SeedLike,
        num_distinct: int = 50,
        terms_per_query: int = 2,
        term_pool_size: int = 100,
        zipf_exponent: float = 1.0,
    ) -> None:
        if num_peers < 1:
            raise ValueError(f"num_peers must be >= 1, got {num_peers}")
        if num_distinct < 1:
            raise ValueError(f"num_distinct must be >= 1, got {num_distinct}")
        if zipf_exponent < 0:
            raise ValueError(f"zipf_exponent must be >= 0, got {zipf_exponent}")
        self.num_peers = int(num_peers)
        self._rng = as_generator(seed)
        self.candidates: Tuple[Query, ...] = tuple(
            generate_queries(
                corpus,
                num_queries=num_distinct,
                terms_per_query=terms_per_query,
                term_pool_size=term_pool_size,
                seed=self._rng,
            )
        )
        weights = np.arange(1, len(self.candidates) + 1, dtype=np.float64)
        weights = weights ** -float(zipf_exponent)
        # numpy's ``choice(n, p=p)`` over the normalised weights builds
        # this CDF on every call and searches it with one ``random()``
        # draw; building it once keeps the seeded stream pick for pick.
        # Kept as a list for ``bisect``: for one scalar pick it is
        # several times cheaper than a numpy ``searchsorted`` call.
        cdf = (weights / weights.sum()).cumsum()
        self._cdf: List[float] = (cdf / cdf[-1]).tolist()

    def sample(self, time: float) -> QueryArrival:
        """Draw one arrival at ``time`` (advances the seeded stream)."""
        idx = bisect.bisect_right(self._cdf, self._rng.random())
        portal = int(self._rng.integers(self.num_peers))
        return QueryArrival(time=float(time), query=self.candidates[idx], portal_peer=portal)

    def open_arrivals(self, qps: float, duration: float) -> List[QueryArrival]:
        """Poisson arrival times at rate ``qps`` over ``duration``
        clock units, each with its query and portal drawn in arrival
        order (one deterministic stream)."""
        if qps <= 0:
            raise ValueError(f"qps must be > 0, got {qps}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        arrivals: List[QueryArrival] = []
        t = 0.0
        while True:
            t += float(self._rng.exponential(1.0 / qps))
            if t >= duration:
                return arrivals
            arrivals.append(self.sample(t))
