"""Property sweep: the runtime's single-document recompute keeps its bits.

:meth:`~repro.p2p.peer.Peer._fresh_rank` is what the asynchronous
runtime runs on every message-triggered recompute (Fig. 1's handler,
:meth:`~repro.p2p.peer.Peer.recompute_document`).  It inlines
:meth:`~repro.p2p.peer.Peer.visible_value` over a document's in-links
and gathers their weights once; it must give, bit for bit, what a plain
loop of ``visible_value(src) * inv_out[src]`` summed left to right from
0.0 gives.

Each of 30 seeds builds a small random graph (out-links in no sorted
order) and placement, takes one peer and puts every kind of in-link in
front of it: local sources published at a value other than their rank,
remote sources heard at several versions (replays and reorderings
included, some values negative), remote sources never heard, and
sources of weight 0 (a dangling document links nowhere, so the sweep
zeroes some in-linking sources' weights to put zero products into the
sum).  Half the seeds run with ``honor_versions=False``.  The staging
that follows a recompute and a ``republish_to`` must follow out-link
order, grouped per destination in first-staging order.
"""

import random

import numpy as np
import pytest

from repro.graphs import LinkGraph, gnp_random_graph
from repro.p2p import PagerankUpdate, Peer

SEEDS = range(30)
DAMPING = 0.85


def reference_rank(peer, doc, damping):
    total = 0.0
    for src in peer.graph.in_links(doc):
        src = int(src)
        total += peer.visible_value(src) * peer._inv_out[src]
    return (1.0 - damping) + damping * total


def bits(x):
    return float(x).hex()


def scenario(seed):
    """One peer of a random network, its view seeded with every kind of
    in-link, and the placement."""
    rnd = random.Random(seed)
    n = rnd.randint(6, 40)
    peers = rnd.randint(2, 5)
    # Shuffled edges keep their order within a row, so out-link order
    # is not ascending target order.
    edges = gnp_random_graph(n, rnd.uniform(0.03, 0.3), seed=seed).edge_array().tolist()
    rnd.shuffle(edges)
    graph = LinkGraph.from_edges(edges, n, dedupe=False)
    peer_of = np.array([rnd.randrange(peers) for _ in range(n)], dtype=np.int64)
    peer_of[rnd.randrange(n)] = 0
    docs = np.flatnonzero(peer_of == 0).tolist()
    peer = Peer(
        0, docs, graph,
        init_rank=rnd.choice([1.0, 0.5, 1.0 / 3.0]),
        honor_versions=seed % 2 == 0,
    )
    for doc in docs:
        peer.rank[doc] = rnd.uniform(0.1, 3.0)
        if rnd.random() < 0.8:
            peer.published[doc] = rnd.uniform(0.1, 3.0)
            peer._publish_version[doc] = rnd.randint(1, 4)
    remote = [d for d in range(n) if peer_of[d] != 0]
    for src in remote:
        if rnd.random() < 0.3:
            continue  # never heard: seen at init_rank
        versions = [rnd.randint(1, 4) for _ in range(rnd.randint(1, 6))]
        versions += rnd.sample(versions, min(2, len(versions)))  # replays
        for version in versions:
            value = rnd.uniform(-1.0, 3.0)
            peer.receive(PagerankUpdate(docs[0], src, value, version))
    sources = sorted({int(s) for d in docs for s in graph.in_links(d)})
    if sources and rnd.random() < 0.7:
        weights = graph.inv_out_degrees().copy()
        weights[rnd.sample(sources, rnd.randint(1, len(sources)))] = 0.0
        peer._inv_out = weights
    return rnd, graph, peer_of, peer


def expected_batches(peer, staged, peer_of):
    """``staged`` is ``(doc, value, version, only_to)`` in staging
    order; returns the outbox's batches as ``(dest, updates)``."""
    out = {}
    for doc, value, version, only_to in staged:
        for target in peer.graph.out_links(doc).tolist():
            dest = int(peer_of[target])
            keep = dest != peer.peer_id if only_to is None else dest == only_to
            if keep:
                out.setdefault(dest, []).append(
                    PagerankUpdate(target, doc, value, version)
                )
    return list(out.items())


def drained(peer):
    return [(b.receiver_peer, b.updates) for b in peer.outbox.batches()]


@pytest.mark.parametrize("seed", SEEDS)
def test_fresh_rank_equals_visible_value_loop(seed):
    _, _, _, peer = scenario(seed)
    for doc in peer.documents.tolist():
        assert bits(peer._fresh_rank(doc, DAMPING)) == bits(
            reference_rank(peer, doc, DAMPING)
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_recompute_document_stages_in_out_link_order(seed):
    rnd, _, peer_of, peer = scenario(seed)
    order = peer.documents.tolist()
    rnd.shuffle(order)
    staged = []
    for doc in order:
        want = reference_rank(peer, doc, DAMPING)
        version = peer._publish_version.get(doc, 0) + 1
        _, published = peer.recompute_document(doc, DAMPING, 0.0, peer_of)
        assert bits(peer.rank[doc]) == bits(want)
        if published:
            assert bits(peer.published[doc]) == bits(want)
            assert peer._publish_version[doc] == version
            staged.append((doc, want, version, None))
    assert drained(peer) == expected_batches(peer, staged, peer_of)


@pytest.mark.parametrize("seed", SEEDS)
def test_republish_to_stages_in_out_link_order(seed):
    _, _, peer_of, peer = scenario(seed)
    for dest in sorted(set(peer_of.tolist()) - {0}):
        staged = [
            (doc, peer.published[doc], peer._publish_version[doc], dest)
            for doc in peer.documents.tolist()
            if peer._publish_version.get(doc, 0)
        ]
        want = expected_batches(peer, staged, peer_of)
        assert peer.republish_to(dest, peer_of) == sum(len(u) for _, u in want)
        assert drained(peer) == want
