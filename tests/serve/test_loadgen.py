"""Tests of the seeded Zipf load generator (docs/SERVING.md)."""

import copy

import numpy as np
import pytest

from repro._util.rng import as_generator
from repro.search.corpus import CorpusConfig, synthesize_corpus
from repro.serve.loadgen import LoadGenerator


@pytest.fixture(scope="module")
def corpus():
    config = CorpusConfig(
        num_documents=100, vocab_size=80, num_stopwords=8,
        raw_vocab_size=400, mean_terms_per_doc=30.0,
    )
    return synthesize_corpus(config, seed=0, with_links=False)


def _gen(corpus, **kw):
    defaults = dict(seed=7, num_distinct=20, terms_per_query=2,
                    term_pool_size=40, zipf_exponent=1.0)
    defaults.update(kw)
    return LoadGenerator(corpus, 8, **defaults)


class TestLoadGenerator:
    def test_same_seed_same_stream(self, corpus):
        a = _gen(corpus).open_arrivals(qps=50.0, duration=2.0)
        b = _gen(corpus).open_arrivals(qps=50.0, duration=2.0)
        assert [(x.time, x.query.terms, x.portal_peer) for x in a] == [
            (x.time, x.query.terms, x.portal_peer) for x in b
        ]
        assert len(a) > 0

    def test_different_seed_differs(self, corpus):
        a = _gen(corpus, seed=1).open_arrivals(qps=50.0, duration=2.0)
        b = _gen(corpus, seed=2).open_arrivals(qps=50.0, duration=2.0)
        assert [x.time for x in a] != [x.time for x in b]

    def test_arrivals_ordered_within_duration(self, corpus):
        arrivals = _gen(corpus).open_arrivals(qps=100.0, duration=1.5)
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 < t < 1.5 for t in times)

    def test_portal_peers_in_range(self, corpus):
        arrivals = _gen(corpus).open_arrivals(qps=100.0, duration=1.0)
        assert all(0 <= a.portal_peer < 8 for a in arrivals)

    def test_queries_drawn_from_candidate_pool(self, corpus):
        gen = _gen(corpus)
        pool = set(gen.candidates)
        arrivals = gen.open_arrivals(qps=100.0, duration=1.0)
        assert all(a.query in pool for a in arrivals)

    def test_zipf_skew_concentrates_popular_queries(self, corpus):
        # Under heavy skew the head query should dominate the stream;
        # uniform draws should not.
        skewed = _gen(corpus, zipf_exponent=2.0)
        uniform = _gen(corpus, zipf_exponent=0.0)
        head = skewed.candidates[0]
        skewed_draws = [skewed.sample(0.0).query for _ in range(400)]
        uniform_draws = [uniform.sample(0.0).query for _ in range(400)]
        assert skewed_draws.count(head) > uniform_draws.count(head)

    def test_validation(self, corpus):
        with pytest.raises(ValueError):
            LoadGenerator(corpus, 0, seed=0)
        with pytest.raises(ValueError):
            _gen(corpus, num_distinct=0)
        with pytest.raises(ValueError):
            _gen(corpus, zipf_exponent=-1.0)
        with pytest.raises(ValueError):
            _gen(corpus).open_arrivals(qps=0.0, duration=1.0)
        with pytest.raises(ValueError):
            _gen(corpus).open_arrivals(qps=1.0, duration=0.0)


def _twin_arrivals(gen, rng, qps, duration, zipf_exponent):
    """``open_arrivals`` written against numpy's own draws: per arrival
    one ``exponential``, one ``choice`` over the normalised Zipf
    weights and one ``integers`` portal."""
    n = len(gen.candidates)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -float(zipf_exponent)
    p = weights / weights.sum()
    out, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / qps))
        if t >= duration:
            return out
        idx = int(rng.choice(n, p=p))
        out.append((t, gen.candidates[idx], int(rng.integers(gen.num_peers))))


class TestStreamPinnedToNumpyChoice:
    """A Zipf pick is one ``random()`` draw searched in a CDF built
    once; the stream must be the one ``Generator.choice`` gives."""

    @pytest.mark.parametrize("zipf_exponent", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 3, 7, 11, 12345])
    def test_open_arrivals_equal_choice_twin(self, corpus, seed, zipf_exponent):
        gen = _gen(corpus, seed=seed, zipf_exponent=zipf_exponent)
        # The same-seed generator as construction left it (the query
        # pool drew from it first).
        twin = copy.deepcopy(gen._rng)
        got = [
            (a.time, a.query, a.portal_peer)
            for a in gen.open_arrivals(qps=400.0, duration=2.0)
        ]
        assert got == _twin_arrivals(gen, twin, 400.0, 2.0, zipf_exponent)
        assert len(got) > 500
        assert gen._rng.random() == twin.random()

    @pytest.mark.parametrize("zipf_exponent", [0.0, 1.0, 2.0])
    def test_reseeded_generator_keeps_the_stream(self, corpus, zipf_exponent):
        # The CDF is built from the weights alone, so swapping the
        # generator after construction (as a benchmark reseeding the
        # arrival stream does) draws that generator's choice stream.
        gen = _gen(corpus, zipf_exponent=zipf_exponent)
        gen._rng = as_generator(99)
        got = [
            (a.time, a.query, a.portal_peer)
            for a in gen.open_arrivals(qps=400.0, duration=1.0)
        ]
        twin = as_generator(99)
        assert got == _twin_arrivals(gen, twin, 400.0, 1.0, zipf_exponent)
        assert gen._rng.random() == twin.random()


@pytest.mark.parametrize("zipf_exponent", [0.0, 1.0, 2.0])
def test_list_cdf_search_equals_numpy_searchsorted(corpus, zipf_exponent):
    """``sample`` bisects a list CDF; on 10k seeded draws it picks the
    index ``np.searchsorted(side="right")`` picks on the array CDF."""
    gen = _gen(corpus, num_distinct=50, term_pool_size=80, zipf_exponent=zipf_exponent)
    twin = copy.deepcopy(gen._rng)
    weights = np.arange(1, len(gen.candidates) + 1, dtype=np.float64) ** -zipf_exponent
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    index = {query: i for i, query in enumerate(gen.candidates)}
    assert len(index) == len(gen.candidates)
    got = [index[gen.sample(0.0).query] for _ in range(10_000)]
    expected = []
    for _ in range(10_000):
        expected.append(int(np.searchsorted(cdf, twin.random(), side="right")))
        twin.integers(gen.num_peers)
    assert got == expected
    assert len(set(got)) > 1
