"""Bloom filters and Bloom-assisted distributed intersection.

The paper (§2.4.2-§2.4.3) notes that Bloom-filter methods (Reynolds &
Vahdat, ref. [19]; Bloom, ref. [3]) are the existing answer to
multi-word query traffic, and that incremental search "can be coupled
with a Bloom filter based method to provide further reduction".  This
module supplies both pieces:

* :class:`BloomFilter` — a from-scratch bit-array filter with
  double-hashing (Kirsch–Mitzenmacher), zero false negatives by
  construction;
* :func:`bloom_search` — the [19]-style two-peer intersection: ship a
  filter of the running hit set instead of the ids, let the next peer
  prefilter its postings, and measure traffic in *bytes* (filters and
  ids are not the same unit, so the byte metric is the honest one);
* the same machinery composed with top-x% forwarding
  (``fraction`` argument), the coupling the paper proposes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro._util import check_fraction
from repro.search.incremental import DEFAULT_MIN_FORWARD, forward_top_fraction
from repro.search.index import DistributedIndex
from repro.search.query import Query

__all__ = ["BloomFilter", "BloomSearchOutcome", "bloom_search", "DOC_ID_BYTES"]

#: Wire size of one document ID: a 128-bit GUID (matching the paper's
#: message accounting).
DOC_ID_BYTES = 16


class BloomFilter:
    """Classic Bloom filter over integer keys.

    Parameters
    ----------
    num_bits:
        Size of the bit array (``m``).
    num_hashes:
        Number of hash probes per key (``k``).

    Notes
    -----
    Uses double hashing: two 64-bit lanes derived from one SHA-256 per
    key give ``h_i(x) = h1 + i*h2 mod m``, which preserves the standard
    false-positive analysis.  Membership tests have **no false
    negatives** (property-tested in the suite); the false-positive rate
    for ``n`` inserted keys is ``(1 - e^(-kn/m))^k``.
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 8:
            raise ValueError(f"num_bits must be >= 8, got {num_bits}")
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        self._bits = np.zeros(num_bits, dtype=bool)
        self._count = 0

    @classmethod
    def for_capacity(cls, capacity: int, fp_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``capacity`` keys at a target false-positive
        rate, using the textbook optima ``m = -n ln p / ln²2`` and
        ``k = (m/n) ln 2``."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
        m = int(np.ceil(-capacity * np.log(fp_rate) / (np.log(2) ** 2)))
        k = max(1, int(round(m / capacity * np.log(2))))
        return cls(max(m, 8), k)

    def _probes(self, key: int) -> np.ndarray:
        digest = hashlib.sha256(int(key).to_bytes(16, "big", signed=False)).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1  # odd => full cycle
        i = np.arange(self.num_hashes, dtype=np.uint64)
        return (np.uint64(h1) + i * np.uint64(h2)) % np.uint64(self.num_bits)

    def add(self, key: int) -> None:
        """Insert one key."""
        self._bits[self._probes(key)] = True
        self._count += 1

    def add_many(self, keys: Iterable[int]) -> None:
        for k in keys:
            self.add(int(k))

    def __contains__(self, key: int) -> bool:
        return bool(self._bits[self._probes(key)].all())

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Vector membership test (may include false positives)."""
        return np.array([int(k) in self for k in keys], dtype=bool)

    @property
    def size_bytes(self) -> int:
        """Wire size when shipped to another peer."""
        return (self.num_bits + 7) // 8

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set (saturation diagnostic)."""
        return float(self._bits.mean())

    def expected_fp_rate(self) -> float:
        """Analytic false-positive estimate for the current load."""
        k, m, n = self.num_hashes, self.num_bits, self._count
        return float((1.0 - np.exp(-k * n / m)) ** k)


@dataclass(frozen=True)
class BloomSearchOutcome:
    """Result + byte-level traffic of a Bloom-assisted query.

    Attributes
    ----------
    hits:
        Final result documents (exact — false positives are removed by
        the verification round), rank-sorted.
    traffic_bytes:
        Total bytes moved: filters + candidate ids + verified ids +
        the final return to the user.
    baseline_bytes:
        What the same query would have cost shipping full id lists
        (``DOC_ID_BYTES`` per id), for the reduction ratio.
    false_positives:
        Candidates that passed the filter but not the true
        intersection (removed during verification).
    """

    hits: np.ndarray
    traffic_bytes: int
    baseline_bytes: int
    false_positives: int

    @property
    def reduction_factor(self) -> float:
        """Baseline bytes / Bloom bytes (> 1 means the filter won)."""
        return self.baseline_bytes / self.traffic_bytes if self.traffic_bytes else 0.0


def bloom_search(
    index: DistributedIndex,
    query: Query,
    *,
    fp_rate: float = 0.01,
    fraction: Optional[float] = None,
    min_forward: int = DEFAULT_MIN_FORWARD,
) -> BloomSearchOutcome:
    """Reynolds–Vahdat-style Bloom intersection, optionally composed
    with the paper's top-x% incremental forwarding.

    Protocol per hop (peer A holds the running set S, peer B owns the
    next term):

    1. A ships ``Bloom(S)`` to B  (filter bytes);
    2. B prefilters its postings to candidates ``C = {d ∈ postings :
       d ∈ Bloom(S)}`` and ships C back to A  (id bytes, includes the
       filter's false positives);
    3. A intersects C with S exactly, yielding the true running set,
       and — when ``fraction`` is given — truncates it with the
       §2.4.3 top-x% rule before the next hop.

    The final exact set is shipped to the user.  The unassisted
    baseline cost for the same hops (full id lists each way where the
    protocol ships ids) is accumulated alongside for comparison.
    """
    if fraction is not None:
        check_fraction("fraction", fraction)

    current = index.postings(query.terms[0]).docs.copy()
    traffic = 0
    baseline = 0
    false_pos = 0

    for term in query.terms[1:]:
        if fraction is not None:
            current = forward_top_fraction(current, fraction, min_forward=min_forward)
        postings = index.postings(term).docs
        # Hop cost if we had shipped the set as plain ids:
        baseline += current.size * DOC_ID_BYTES

        bloom = BloomFilter.for_capacity(max(int(current.size), 1), fp_rate)
        bloom.add_many(current.tolist())
        traffic += bloom.size_bytes

        candidates = postings[bloom.contains_many(postings)]
        traffic += candidates.size * DOC_ID_BYTES

        # Both sides are distinct docs: a rank-sorted set and a subset
        # of a posting list.
        true_set = np.intersect1d(current, candidates, assume_unique=True)
        false_pos += int(candidates.size - true_set.size)
        current = index.sort_docs_by_rank(true_set)

    traffic += current.size * DOC_ID_BYTES  # return to user
    baseline += current.size * DOC_ID_BYTES
    return BloomSearchOutcome(
        hits=current,
        traffic_bytes=int(traffic),
        baseline_bytes=int(baseline),
        false_positives=false_pos,
    )
