"""Tests of the per-table experiment drivers, at miniature scale."""

import numpy as np
import pytest

from repro.analysis import (
    clear_reference_cache,
    default_sizes,
    reference_ranks,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.scenario import Scenario, build
from repro.search import CorpusConfig

SIZES = (300, 600)


@pytest.fixture(scope="module")
def results():
    """Run all graph-based drivers once at tiny scale."""
    t1 = table1(SIZES, num_peers=20, seed=0, epsilon=1e-2)
    t2 = table2(SIZES, thresholds=(0.2, 1e-2, 1e-4), num_peers=20, seed=0)
    t3 = table3(SIZES, thresholds=(0.2, 1e-2, 1e-4), num_peers=20, seed=0)
    t4 = table4(SIZES, thresholds=(0.2, 1e-2, 1e-4), samples=20, seed=0)
    return t1, t2, t3, t4


class TestInfrastructure:
    def test_default_sizes_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert default_sizes() == (10_000, 30_000, 100_000)
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert default_sizes() == (10_000, 100_000, 500_000, 5_000_000)

    def test_reference_cache_reuses(self):
        a = reference_ranks(build(Scenario(200, 5, seed=1)))
        b = reference_ranks(build(Scenario(200, 7, epsilon=1e-2, seed=1)))
        assert a is b
        assert reference_ranks(build(Scenario(200, 5, seed=2))) is not a
        clear_reference_cache()
        c = reference_ranks(build(Scenario(200, 5, seed=1)))
        assert c is not a
        np.testing.assert_array_equal(c, a)

    @pytest.mark.parametrize("driver", [table1, table2, table3])
    def test_unconverged_run_aborts_the_table(self, driver):
        with pytest.raises(RuntimeError, match="no convergence at size=300"):
            driver((300,), num_peers=20, seed=0, max_passes=2)


class TestTable1:
    def test_structure_and_trends(self, results):
        t1, *_ = results
        assert set(t1.passes) == {
            (s, f) for s in SIZES for f in (1.0, 0.75, 0.5)
        }
        for s in SIZES:
            # churn slows convergence
            assert t1.passes[(s, 0.5)] > t1.passes[(s, 1.0)]
        out = t1.render()
        assert "Table 1" in out and "50% peers" in out


class TestTable2:
    def test_quality_improves_with_epsilon(self, results):
        _, t2, *_ = results
        for s in SIZES:
            loose = t2.distributions[(s, 0.2)]
            tight = t2.distributions[(s, 1e-4)]
            assert tight.mean_error < loose.mean_error
            assert tight.max_error < loose.max_error

    def test_tight_epsilon_high_quality(self, results):
        _, t2, *_ = results
        for s in SIZES:
            dist = t2.distributions[(s, 1e-4)]
            assert dist.percentile_errors[99.0] < 0.01

    def test_render(self, results):
        _, t2, *_ = results
        out = t2.render()
        assert out.count("Table 2") == len(SIZES)


class TestTable3:
    def test_traffic_grows_with_tighter_epsilon(self, results):
        *_, t3, _ = results
        for s in SIZES:
            msgs = [t3.messages[(s, e)][0] for e in (0.2, 1e-2, 1e-4)]
            assert msgs[0] <= msgs[1] <= msgs[2]

    def test_traffic_growth_is_sublinear_in_accuracy(self, results):
        # Table 3's headline: 100x tighter eps < 3x more messages.
        *_, t3, _ = results
        for s in SIZES:
            ratio = t3.messages[(s, 1e-4)][0] / max(t3.messages[(s, 1e-2)][0], 1)
            assert ratio < 4.0

    def test_per_node_metric_roughly_size_independent(self, results):
        *_, t3, _ = results
        small = t3.per_node(SIZES[0], 1e-4)
        large = t3.per_node(SIZES[1], 1e-4)
        assert 0.3 < small / large < 3.0

    def test_exec_time_decreases_with_rate(self, results):
        *_, t3, _ = results
        s = SIZES[-1]
        slow = t3.exec_time_hours(s, 1e-4, 32 * 1024)
        fast = t3.exec_time_hours(s, 1e-4, 200 * 1024)
        assert slow > fast

    def test_render(self, results):
        *_, t3, _ = results
        assert "Table 3" in t3.render()


class TestTable4:
    def test_trends(self, results):
        *_, t4 = results
        for s in SIZES:
            paths = [t4.path_length[(s, e)] for e in (0.2, 1e-2, 1e-4)]
            covs = [t4.coverage[(s, e)] for e in (0.2, 1e-2, 1e-4)]
            assert paths[0] <= paths[-1]
            assert covs[0] <= covs[-1]

    def test_render(self, results):
        *_, t4 = results
        out = t4.render()
        assert "Table 4a" in out and "Table 4b" in out


class TestTable5:
    def test_summary_assembled(self, results):
        t1, t2, t3, t4 = results
        t5 = table5(t1, t2, t3, t4)
        out = t5.render()
        assert "Convergence" in out
        assert "Message traffic" in out
        assert len(t5.rows) == 5


class TestTable6:
    @pytest.fixture(scope="class")
    def t6(self):
        cfg = CorpusConfig(
            num_documents=600,
            vocab_size=200,
            num_stopwords=20,
            raw_vocab_size=2_000,
            mean_terms_per_doc=200.0,
        )
        return table6(corpus_config=cfg, num_peers=10, queries_per_arity=8, seed=0)

    def test_reduction_exceeds_one(self, t6):
        for key, value in t6.reduction.items():
            assert value > 1.0, key

    def test_top10_reduces_more_than_top20_without_floor(self):
        # At this miniature scale the min-forward-20 floor dominates
        # (10% of a small hit list ships everything — the Table 6
        # anomaly itself), so the paper's ordering only appears with
        # the floor disabled.
        cfg = CorpusConfig(
            num_documents=600,
            vocab_size=200,
            num_stopwords=20,
            raw_vocab_size=2_000,
            mean_terms_per_doc=200.0,
        )
        from repro.search import (
            DistributedIndex,
            baseline_search,
            generate_queries,
            incremental_search,
            synthesize_corpus,
        )
        from repro.core import ChaoticPagerank
        from repro.p2p import DocumentPlacement

        corpus = synthesize_corpus(cfg, seed=0)
        pl = DocumentPlacement.random(corpus.num_documents, 10, seed=1)
        ranks = ChaoticPagerank(
            corpus.link_graph, pl.assignment, num_peers=10, epsilon=1e-3
        ).run().ranks
        index = DistributedIndex(corpus, ranks, 10)
        queries = generate_queries(corpus, num_queries=10, seed=2)
        for frac_lo, frac_hi in [(0.1, 0.2)]:
            t_lo = sum(
                incremental_search(index, q, fraction=frac_lo, min_forward=0).traffic_doc_ids
                for q in queries
            )
            t_hi = sum(
                incremental_search(index, q, fraction=frac_hi, min_forward=0).traffic_doc_ids
                for q in queries
            )
            assert t_lo <= t_hi

    def test_hits_bounded_by_baseline(self, t6):
        for (frac, arity), hits in t6.hits.items():
            assert hits <= t6.baseline_hits[arity] + 1e-9

    def test_render(self, t6):
        out = t6.render()
        assert "Table 6a" in out and "Baseline" in out


def test_table_driver_validation():
    with pytest.raises(ValueError):
        table4(SIZES, samples=0)


def test_generate_report_tiny(capsys):
    from repro.analysis import generate_report
    from repro.search import CorpusConfig

    cfg = CorpusConfig(
        num_documents=400, vocab_size=150, num_stopwords=20,
        raw_vocab_size=1_000, mean_terms_per_doc=120.0,
    )
    text = generate_report(
        sizes=(300,), num_peers=10, insert_samples=5, seed=0,
        corpus_config=cfg, progress=lambda _: None,
    )
    for marker in ("Table 1", "Table 2", "Table 3", "Table 4a",
                   "Table 5", "Table 6a", "trajectory"):
        assert marker in text, marker
