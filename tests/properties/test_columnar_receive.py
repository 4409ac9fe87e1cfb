"""Property sweep: the columnar receive equals the sequential fold.

``Peer.receive_batch`` on :class:`~repro.p2p.messages.UpdateColumns`
folds a whole run of updates with array operations; it must leave
exactly the state a loop of ``Peer.receive`` calls leaves and report
the same applied count, and its ``out`` mask must mark exactly the
updates the loop applied.  Update sequences are drawn with the stdlib
:mod:`random` generator over 20 seeds and mix every case the version
rule distinguishes: newer versions, equal-version replays, reordered
stale versions, sources never heard from (inside and outside the
peer's in-link neighbourhood), local documents as sources, and one
source repeated across many targets.  Each case runs as one columnar
run and split into consecutive runs (the way deferred and retransmitted
batches reach a receiver), and in the unversioned wire mode, with the
fold forced on every run; a last sweep keeps ``receive_batch``'s
length rule, which takes the per-update loop for short runs.
"""

import random

import numpy as np
import pytest

from repro.graphs import broder_graph
from repro.p2p import PagerankUpdate, Peer
from repro.p2p import peer as peer_module
from repro.p2p.messages import UpdateColumns

SEEDS = range(20)
DOCS = 80


def draw_run(rng, graph, local, length):
    """A run of updates addressed to ``local`` documents."""
    in_sources = sorted(
        {int(s) for d in local for s in graph.in_links(d)} - set(local)
    )
    strangers = [d for d in range(DOCS) if d not in local and d not in in_sources]
    pool = in_sources * 3 + strangers + list(local)
    hot = rng.choice(in_sources or pool)
    run = []
    for _ in range(length):
        source = hot if rng.random() < 0.25 else rng.choice(pool)
        run.append(
            PagerankUpdate(
                target_doc=rng.choice(local),
                source_doc=source,
                value=rng.choice([0.5, 1.0, 1.5]) + rng.random(),
                version=rng.randint(0, 6),
            )
        )
    # Replay a few rows verbatim and a few with a stale, lower version.
    for _ in range(length // 5):
        u = rng.choice(run)
        run.insert(rng.randrange(len(run) + 1), u)
        run.insert(
            rng.randrange(len(run) + 1),
            PagerankUpdate(u.target_doc, u.source_doc, u.value + 1.0, max(0, u.version - 1)),
        )
    return run


def twin_peers(seed, *, honor_versions):
    graph = broder_graph(DOCS, seed=seed)
    rng = random.Random(seed)
    local = sorted(rng.sample(range(DOCS), 12))
    peers = [
        Peer(0, local, graph, honor_versions=honor_versions) for _ in range(2)
    ]
    return graph, local, peers, rng


def assert_same_state(a, b):
    assert a.remote_values == b.remote_values
    assert a._remote_versions == b._remote_versions


@pytest.fixture
def fold_every_run(monkeypatch):
    """Make ``receive_batch`` fold every run in columns, however short."""
    monkeypatch.setattr(peer_module, "_COLUMNAR_MIN_ROWS", 1)


@pytest.mark.parametrize("honor_versions", [True, False])
@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_receive_matches_sequential_fold(
    seed, chunked, honor_versions, fold_every_run
):
    graph, local, (seq, col), rng = twin_peers(seed, honor_versions=honor_versions)
    # Several rounds, so held versions from earlier runs gate later ones.
    for length in (rng.randint(1, 8), rng.randint(20, 60), rng.randint(60, 150)):
        run = draw_run(rng, graph, local, length)
        applied = [seq.receive(u) for u in run]
        expected = sum(applied)
        cuts = [0, len(run)]
        if chunked:
            cuts[1:1] = sorted(rng.choices(range(len(run) + 1), k=3))
        out = np.ones(len(run), dtype=bool)
        got = sum(
            col.receive_batch(UpdateColumns.from_updates(run[lo:hi]), out[lo:hi])
            for lo, hi in zip(cuts, cuts[1:])
        )
        assert got == expected
        assert out.tolist() == applied
        assert_same_state(seq, col)


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_and_scalar_receives_interleave(seed, fold_every_run):
    """Mixing scalar and columnar receives on one peer leaves the state
    the scalar loop leaves: each path reads the version floors the
    other wrote."""
    graph, local, (seq, mixed), rng = twin_peers(seed, honor_versions=True)
    for _ in range(4):
        run = draw_run(rng, graph, local, rng.randint(10, 40))
        cut = rng.randrange(len(run))
        expected = sum(seq.receive(u) for u in run)
        got = sum(mixed.receive(u) for u in run[:cut])
        got += mixed.receive_batch(UpdateColumns.from_updates(run[cut:]))
        assert got == expected
        assert_same_state(seq, mixed)


@pytest.mark.parametrize("seed", SEEDS)
def test_length_rule_matches_sequential_fold(seed):
    """With its default length rule ``receive_batch`` folds long runs in
    columns and short ones one update at a time; either way it leaves
    the sequential fold's state, count and applied mask."""
    graph, local, (seq, col), rng = twin_peers(seed, honor_versions=True)
    for _ in range(6):
        run = draw_run(rng, graph, local, rng.randint(1, 60))
        cuts = [0] + sorted(rng.choices(range(len(run) + 1), k=2)) + [len(run)]
        applied = [seq.receive(u) for u in run]
        out = np.ones(len(run), dtype=bool)
        got = sum(
            col.receive_batch(UpdateColumns.from_updates(run[lo:hi]), out[lo:hi])
            for lo, hi in zip(cuts, cuts[1:])
        )
        assert got == sum(applied)
        assert out.tolist() == applied
        assert_same_state(seq, col)


def test_empty_run_applies_nothing():
    _, _, (peer, _), _ = twin_peers(0, honor_versions=True)
    assert peer.receive_batch(UpdateColumns.empty()) == 0
    assert peer.remote_values == {}
