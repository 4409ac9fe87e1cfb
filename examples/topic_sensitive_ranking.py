#!/usr/bin/env python
"""Topic-sensitive pagerank on the P2P network (paper §7 lineage).

The paper's related work cites Haveliwala's topic-sensitive pagerank;
this example shows the distributed scheme computes it with the *same*
engine and message protocol — the teleport preference vector is one
more input of ``ChaoticPagerank``, local state at each document's
owner, so topic bias costs the network nothing extra.

We pick a "topic" as the documents containing a chosen frequent term,
compute global and topic-biased ranks with the distributed engine, and
compare search orderings (including the FASD closeness ⊕ pagerank
combination from §2.4.1).

Run:  python examples/topic_sensitive_ranking.py
"""

import numpy as np

from _scale import scaled
from repro.analysis import format_table
from repro.core import ChaoticPagerank, topic_vector
from repro.p2p import DocumentPlacement
from repro.search import CorpusConfig, FasdScorer, synthesize_corpus

NUM_PEERS = 25


def main() -> None:
    cfg = CorpusConfig(
        num_documents=scaled(2_000, floor=250),
        vocab_size=500,
        num_stopwords=40,
        raw_vocab_size=5_000,
        mean_terms_per_doc=300.0,
    )
    print("Building corpus and computing global distributed pagerank ...")
    corpus = synthesize_corpus(cfg, seed=0)
    placement = DocumentPlacement.random(corpus.num_documents, NUM_PEERS, seed=1)
    global_run = ChaoticPagerank(
        corpus.link_graph, placement.assignment, num_peers=NUM_PEERS, epsilon=1e-4
    ).run(keep_history=False)

    # Topic = documents containing a mid-frequency term.
    topic_term = int(corpus.top_terms(60)[-1])
    seeds = corpus.documents_with_term(topic_term)
    print(f"Topic seed set: term {topic_term}, {seeds.size} documents")

    v = topic_vector(corpus.num_documents, seeds, weight=0.9)
    topic_run = ChaoticPagerank(
        corpus.link_graph, placement.assignment, epsilon=1e-4, preference=v
    ).run(keep_history=False)

    print(f"\nmessage cost:  global {global_run.total_messages:,}  "
          f"topic-biased {topic_run.total_messages:,}  "
          "(same protocol, no extra message types)\n")

    g_top = np.argsort(global_run.ranks)[::-1][:8]
    t_top = np.argsort(topic_run.ranks)[::-1][:8]
    in_topic = set(int(d) for d in seeds)
    rows = [
        (i + 1,
         f"{int(g)}{'*' if int(g) in in_topic else ''}",
         f"{int(t)}{'*' if int(t) in in_topic else ''}")
        for i, (g, t) in enumerate(zip(g_top, t_top))
    ]
    print(format_table(
        ["rank", "global top docs", "topic-biased top docs"],
        rows,
        title="Top documents (* = in the topic seed set)",
    ))
    topical_in_top = sum(1 for t in t_top if int(t) in in_topic)
    global_in_top = sum(1 for g in g_top if int(g) in in_topic)
    print(f"\ntopic docs in the top-8: global {global_in_top}, "
          f"topic-biased {topical_in_top}")

    # FASD-style combined scoring uses the ranks for forwarding order.
    scorer = FasdScorer(corpus, topic_run.ranks, alpha=0.5)
    result = scorer.search([topic_term], top_k=5)
    rows = [(int(d), f"{s:.3f}", f"{c:.3f}")
            for d, s, c in zip(result.docs, result.scores, result.closeness)]
    print("\n" + format_table(
        ["doc", "combined score", "closeness"],
        rows,
        title="FASD forwarding order (alpha=0.5 closeness + topic rank)",
    ))


if __name__ == "__main__":
    main()
