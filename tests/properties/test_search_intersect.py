"""Property sweep: the search intersects may skip re-uniquing.

Every index peer's boolean AND (§2.4.3) and the Bloom search's exact
step intersect two sets of distinct documents — a posting list, a
subset of one, or a prefix of a rank-sorted intersection — so they call
``np.intersect1d(..., assume_unique=True)``.  Over seeded tiny corpora
this sweep checks that both inputs of every such call really are
distinct, and that baseline, incremental (both route orders) and Bloom
search return exactly what the re-uniquing intersect returns.
"""

import numpy as np
import pytest

from repro.search import (
    CorpusConfig,
    DistributedIndex,
    baseline_search,
    bloom_search,
    generate_queries,
    incremental_search,
    synthesize_corpus,
)

_intersect1d = np.intersect1d


def _checked(a, b, assume_unique=False, **kwargs):
    if assume_unique:
        assert np.unique(a).size == np.asarray(a).size
        assert np.unique(b).size == np.asarray(b).size
    return _intersect1d(a, b, assume_unique=assume_unique, **kwargs)


def _reuniquing(a, b, assume_unique=False, **kwargs):
    return _intersect1d(a, b, assume_unique=False, **kwargs)


def _run_all(index, queries):
    out = []
    for q in queries:
        for order in ("given", "rarest_first"):
            b = baseline_search(index, q, route_order=order)
            out.append((b.hits, b.hop_sizes))
            for fraction in (0.1, 0.3):
                i = incremental_search(
                    index, q, fraction=fraction, min_forward=3, route_order=order
                )
                out.append((i.hits, i.hop_sizes))
        for fraction in (None, 0.2):
            f = bloom_search(index, q, fraction=fraction, min_forward=3)
            out.append((f.hits, (f.traffic_bytes, f.baseline_bytes, f.false_positives)))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_assume_unique_intersect_matches_reuniquing(seed, monkeypatch):
    corpus = synthesize_corpus(
        CorpusConfig(
            num_documents=150 + 20 * seed,
            vocab_size=40,
            num_stopwords=4,
            raw_vocab_size=200,
            mean_terms_per_doc=25.0,
        ),
        seed=seed,
        with_links=False,
    )
    rng = np.random.default_rng(seed)
    ranks = np.round(rng.uniform(0.15, 1.0, corpus.num_documents), 2)
    index = DistributedIndex(corpus, ranks, num_peers=5)
    queries = [
        q
        for arity in (2, 3)
        for q in generate_queries(
            corpus, num_queries=8, terms_per_query=arity, term_pool_size=20, seed=seed
        )
    ]
    monkeypatch.setattr(np, "intersect1d", _checked)
    fast = _run_all(index, queries)
    monkeypatch.setattr(np, "intersect1d", _reuniquing)
    slow = _run_all(index, queries)
    assert len(fast) == len(slow)
    for (hits_a, meta_a), (hits_b, meta_b) in zip(fast, slow):
        assert np.array_equal(hits_a, hits_b)
        assert meta_a == meta_b
