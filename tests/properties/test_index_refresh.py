"""Property sweep: the §2.4.2 index stays exactly rank-sorted.

:class:`~repro.search.DistributedIndex` keeps its posting lists as one
CSR doc column that a bulk :meth:`refresh_ranks` re-sorts with a single
packed sort and a single-document :meth:`update_rank` re-sorts term by
term.  Over 20 seeds of small corpora with ranks rounded so that ties
are common, a random sequence of both calls must leave, after every
step:

* every term's ``docs``/``ranks`` equal to a per-term
  ``np.lexsort((docs, -ranks))`` reference and to a freshly built index;
* a refresh's returned message count equal to the summed index-peer
  count of the documents whose rank changed, and the running
  ``index_update_messages`` equal to the sum of every charge;
* a no-change refresh free and without effect;
* a :class:`~repro.search.PostingList` taken before the step unchanged.
"""

import numpy as np
import pytest

from repro.search import Corpus, CorpusConfig, DistributedIndex, synthesize_corpus

SEEDS = range(20)


def _corpus(seed: int) -> Corpus:
    corpus = synthesize_corpus(
        CorpusConfig(
            num_documents=60 + 7 * seed,
            vocab_size=30,
            num_stopwords=3,
            raw_vocab_size=120,
            mean_terms_per_doc=12.0,
        ),
        seed=seed,
        with_links=False,
    )
    # One document with no terms at all.
    doc_terms = list(corpus.doc_terms)
    doc_terms[seed % len(doc_terms)] = np.empty(0, dtype=np.int64)
    df = np.zeros(corpus.vocab_size, dtype=np.int64)
    for terms in doc_terms:
        df[terms] += 1
    return Corpus(doc_terms=doc_terms, vocab_size=corpus.vocab_size, document_frequency=df)


def _ranks(rng: np.random.Generator, n: int) -> np.ndarray:
    # Two decimals over a narrow range: many exact ties.
    return np.round(rng.uniform(0.1, 0.6, n), 2)


def _snapshot(index: DistributedIndex, vocab: int):
    return [index.postings(t) for t in range(vocab)]


def _assert_sorted(index, corpus, members, ranks):
    fresh = DistributedIndex(corpus, ranks, num_peers=index.num_peers)
    for term, docs in enumerate(members):
        expected = docs[np.lexsort((docs, -ranks[docs]))]
        got = index.postings(term)
        assert np.array_equal(got.docs, expected), term
        assert np.array_equal(got.ranks, ranks[expected]), term
        assert np.array_equal(fresh.postings(term).docs, expected), term


@pytest.mark.parametrize("seed", SEEDS)
def test_refresh_and_update_keep_rank_order(seed):
    rng = np.random.default_rng(1000 + seed)
    corpus = _corpus(seed)
    n, vocab = corpus.num_documents, corpus.vocab_size
    doc_sets = [set(t.tolist()) for t in corpus.doc_terms]
    members = [
        np.array([d for d in range(n) if term in doc_sets[d]], dtype=np.int64)
        for term in range(vocab)
    ]
    ranks = _ranks(rng, n)
    index = DistributedIndex(corpus, ranks, num_peers=int(rng.integers(1, 9)))
    charged = sum(t.size for t in corpus.doc_terms)
    assert index.index_update_messages == charged
    _assert_sorted(index, corpus, members, ranks)

    for _ in range(12):
        before = _snapshot(index, vocab)
        frozen = [(p.docs.copy(), p.ranks.copy()) for p in before]
        kind = rng.integers(3)
        if kind == 0:
            # Bulk refresh moving a random subset of documents.
            new = ranks.copy()
            moved = rng.random(n) < rng.uniform(0.05, 0.8)
            new[moved] = _ranks(rng, int(moved.sum()))
            changed = np.flatnonzero(new != ranks)
            messages = index.refresh_ranks(new)
            assert messages == sum(len(index.index_peers_of_doc(int(d))) for d in changed)
            assert messages == index.maintenance_messages(changed)
            charged += messages
            ranks = new
        elif kind == 1:
            doc = int(rng.integers(n))
            rank = float(np.round(rng.uniform(0.1, 0.6), 2))
            index.update_rank(doc, rank)
            charged += 1
            ranks = ranks.copy()
            ranks[doc] = rank
        else:
            assert index.refresh_ranks(ranks.copy()) == 0
            for term, (docs, r) in enumerate(frozen):
                assert np.array_equal(index.postings(term).docs, docs)
                assert np.array_equal(index.postings(term).ranks, r)
        assert index.index_update_messages == charged
        _assert_sorted(index, corpus, members, ranks)
        for p, (docs, r) in zip(before, frozen):
            assert np.array_equal(p.docs, docs)
            assert np.array_equal(p.ranks, r)


@pytest.mark.parametrize("seed", [0, 5])
def test_edge_cases(seed):
    corpus = _corpus(seed)
    index = DistributedIndex(corpus, np.ones(corpus.num_documents), num_peers=4)
    for term in (-1, corpus.vocab_size, 10**7):
        p = index.postings(term)
        assert len(p) == 0 and p.ranks.size == 0
    empty = seed % corpus.num_documents
    assert corpus.doc_terms[empty].size == 0
    assert index.index_peers_of_doc(empty) == set()
    assert index.maintenance_messages([empty]) == 0
    index.update_rank(empty, 3.0)
    assert index.rank_of(empty) == 3.0
    ranks = np.ones(corpus.num_documents)
    ranks[empty] = 0.5
    # Only the term-less document changed: no index peer to tell.
    assert index.refresh_ranks(ranks) == 0
    with pytest.raises(IndexError):
        index.maintenance_messages([corpus.num_documents])
