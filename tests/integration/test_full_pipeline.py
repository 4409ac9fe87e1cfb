"""End-to-end integration: graph → placement → distributed pagerank →
index → search, plus engine agreement across the two pass engines and
the asynchronous runtime."""

import asyncio

import numpy as np
import pytest

from repro.core import ChaoticPagerank, pagerank_reference
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import AsyncPeerRuntime
from repro.search import (
    CorpusConfig,
    DistributedIndex,
    baseline_search,
    generate_queries,
    incremental_search,
    synthesize_corpus,
)
from repro.simulation import P2PPagerankSimulation


class TestSearchPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        cfg = CorpusConfig(
            num_documents=500,
            vocab_size=200,
            num_stopwords=20,
            raw_vocab_size=2_000,
            mean_terms_per_doc=150.0,
        )
        corpus = synthesize_corpus(cfg, seed=0)
        placement = DocumentPlacement.random(corpus.num_documents, 10, seed=1)
        report = ChaoticPagerank(
            corpus.link_graph, placement.assignment, num_peers=10, epsilon=1e-4
        ).run()
        index = DistributedIndex(corpus, report.ranks, 10)
        return corpus, index, report

    def test_pagerank_converged(self, pipeline):
        _, _, report = pipeline
        assert report.converged

    def test_queries_run_end_to_end(self, pipeline):
        corpus, index, _ = pipeline
        queries = generate_queries(
            corpus, num_queries=10, terms_per_query=2, term_pool_size=50, seed=2
        )
        reductions = []
        for q in queries:
            base = baseline_search(index, q)
            inc = incremental_search(index, q, fraction=0.1)
            if base.traffic_doc_ids:
                reductions.append(
                    base.traffic_doc_ids / max(inc.traffic_doc_ids, 1)
                )
        # the paper's order-of-magnitude claim, loosely, at small scale
        assert np.mean(reductions) > 2.0

    def test_index_ranks_match_engine(self, pipeline):
        _, index, report = pipeline
        doc = int(np.argmax(report.ranks))
        assert index.rank_of(doc) == pytest.approx(float(report.ranks.max()))


class TestThreeEnginesAgree:
    """Vectorized pass engine, protocol simulator, and asynchronous
    runtime must land on the same fixed point."""

    @pytest.fixture(scope="class")
    def common(self):
        g = broder_graph(250, seed=50)
        pl = DocumentPlacement.random(g.num_nodes, 8, seed=51)
        return g, pl

    def test_agreement(self, common):
        g, pl = common
        eps = 1e-5
        ref = pagerank_reference(g).ranks

        vec = ChaoticPagerank(g, pl.assignment, num_peers=8, epsilon=eps).run()
        net = P2PNetwork(8, pl, build_ring=False)
        obj = P2PPagerankSimulation(g, net, epsilon=eps).run()
        net2 = P2PNetwork(8, pl, build_ring=False)
        evt = asyncio.run(AsyncPeerRuntime(g, net2, epsilon=eps, seed=0).run())

        assert np.array_equal(vec.ranks, obj.ranks)
        for ranks in (vec.ranks, evt.ranks):
            rel = np.abs(ranks - ref) / ref
            assert np.percentile(rel, 99) < 5e-3

    def test_async_quiesces(self, common):
        g, pl = common
        net = P2PNetwork(8, pl, build_ring=False)
        runtime = AsyncPeerRuntime(g, net, epsilon=1e-4, batch_window=0.5, seed=1)
        report = asyncio.run(runtime.run())
        assert report.quiesced and report.converged
