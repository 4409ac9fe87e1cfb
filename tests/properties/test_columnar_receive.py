"""Property sweep: the simulator's grouped fold equals per-update receives.

:class:`~repro.simulation.P2PPagerankSimulation` folds every delivery
into all its receivers at once (``_deliver``): one stable sort by
(receiver, source) and a running maximum of versions per group, over
one table of what every peer has heard.  That table must hold exactly
what a loop of ``Peer.receive`` calls leaves in a twin set of peers'
version maps, row by row in row order, and the fold's applied mask must
mark exactly the rows the loop applied.  The view must then hold, on
every edge ``s -> d``, what ``d``'s owner sees of ``s``.

Deliveries are drawn with the stdlib :mod:`random` generator over 20
seeds.  They mix every case the version rule distinguishes, across five
receivers: newer versions, equal-version replays, reordered stale
versions, sources never heard from, sources in the receiver's in-link
neighbourhood, the receiver's own documents as sources, and one hot
source repeated across many receivers and targets.  Each draw is
delivered as one call or split into consecutive calls (the way step 1's
resend and step 3's exchange reach a receiver in one pass), with the
receivers' rows interleaved or grouped by receiver as batches arrive.
"""

import random

import numpy as np
import pytest

from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork, PagerankUpdate, Peer
from repro.p2p.messages import UpdateColumns
from repro.simulation import P2PPagerankSimulation

SEEDS = range(20)
DOCS, PEERS = 80, 5


def network(seed):
    """A simulator ready to deliver, twin peers and a generator."""
    graph = broder_graph(DOCS, seed=seed)
    placement = DocumentPlacement.random(DOCS, PEERS, seed=seed)
    sim = P2PPagerankSimulation(graph, P2PNetwork(PEERS, placement, build_ring=False))
    sim._index_cross_edges()
    twins = [Peer(p, np.flatnonzero(sim._peer_of == p), graph) for p in range(PEERS)]
    return graph, sim, twins, random.Random(seed)


def draw_rows(rng, graph, sim, length, *, interleaved=True):
    """``(receivers, updates)`` rows of one draw."""
    hot = rng.randrange(DOCS)
    receivers, run = [], []
    for _ in range(length):
        r = rng.randrange(PEERS)
        target = rng.choice(np.flatnonzero(sim._peer_of == r).tolist() or [0])
        in_links = graph.in_links(target).tolist()
        roll = rng.random()
        if roll < 0.25:
            source = hot
        elif roll < 0.75 and in_links:
            source = rng.choice(in_links)
        else:
            source = rng.randrange(DOCS)
        receivers.append(r)
        run.append(
            PagerankUpdate(
                target_doc=target,
                source_doc=source,
                value=rng.choice([0.5, 1.0, 1.5]) + rng.random(),
                version=rng.randint(0, 6),
            )
        )
    # Replay a few rows verbatim and a few with a stale, lower version.
    for _ in range(length // 5):
        i = rng.randrange(len(run))
        r, u = receivers[i], run[i]
        stale = PagerankUpdate(
            u.target_doc, u.source_doc, u.value + 1.0, max(0, u.version - 1)
        )
        for row in (u, stale):
            at = rng.randrange(len(run) + 1)
            run.insert(at, row)
            receivers.insert(at, r)
    if not interleaved:
        by_receiver = sorted(range(len(run)), key=receivers.__getitem__)
        receivers = [receivers[i] for i in by_receiver]
        run = [run[i] for i in by_receiver]
    return receivers, run


def replay(twins, receivers, run):
    """The sequential fold: one ``Peer.receive`` per row, in order."""
    return [twins[r].receive(u) for r, u in zip(receivers, run)]


def deliver(sim, receivers, run, cuts=None):
    """Fold the rows into the simulator, one ``_deliver`` per cut."""
    cuts = cuts or [0, len(run)]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        applied = sim._deliver(
            np.array(receivers[lo:hi], dtype=np.int64),
            UpdateColumns.from_updates(run[lo:hi]),
        )
        out.extend(applied.tolist())
    return out


def heard(sim):
    """The simulator's heard table as ``{source: (value, version)}``
    per peer."""
    rows = sim.heard_rows()
    keys = rows["key"]
    assert np.all(keys[1:] > keys[:-1]), "heard table keys not sorted and unique"
    out = [{} for _ in range(PEERS)]
    for key, value, version in rows.tolist():
        out[key // DOCS][key % DOCS] = (value, version)
    return out


def assert_same_state(sim, twins):
    assert heard(sim) == [
        {s: (v, twin._remote_versions[s]) for s, v in twin.remote_values.items()}
        for twin in twins
    ]
    src = np.repeat(np.arange(DOCS), sim.graph.out_degrees())
    owners = sim._peer_of[sim.graph.indices]
    truth = [twins[o].visible_value(s) for o, s in zip(owners.tolist(), src.tolist())]
    assert sim.view.tolist() == truth


@pytest.mark.parametrize("interleaved", [True, False])
@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_receive_matches_sequential_fold(seed, chunked, interleaved):
    graph, sim, twins, rng = network(seed)
    # Several rounds, so held versions from earlier deliveries gate
    # later ones.
    for length in (rng.randint(1, 8), rng.randint(20, 60), rng.randint(60, 150)):
        receivers, run = draw_rows(rng, graph, sim, length, interleaved=interleaved)
        expected = replay(twins, receivers, run)
        cuts = [0, len(run)]
        if chunked:
            cuts[1:1] = sorted(rng.choices(range(len(run) + 1), k=3))
        assert deliver(sim, receivers, run, cuts) == expected
        assert_same_state(sim, twins)


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_and_scalar_receives_interleave(seed):
    """Rows delivered one at a time, then the rest folded at once: the
    fold reads the version floors the one-row deliveries wrote."""
    graph, sim, twins, rng = network(seed)
    for _ in range(4):
        receivers, run = draw_rows(rng, graph, sim, rng.randint(10, 40))
        cut = rng.randrange(len(run))
        expected = replay(twins, receivers, run)
        got = deliver(sim, receivers, run, [*range(cut + 1), len(run)])
        assert got == expected
        assert_same_state(sim, twins)


def unlinked(graph, sim):
    """A receiver, a remote source none of its documents link from, and
    one of the receiver's documents."""
    owners = sim._peer_of[graph.indices]
    src = np.repeat(np.arange(DOCS), graph.out_degrees())
    linked = set(zip(owners.tolist(), src.tolist()))
    r, s = next(
        (r, s) for r in range(PEERS) for s in range(DOCS)
        if (r, s) not in linked and sim._peer_of[s] != r
    )
    return r, s, int(np.flatnonzero(sim._peer_of == r)[0])


def test_knowledge_without_a_cross_edge_is_kept():
    """A receiver keeps what it hears of a source none of its documents
    link from: the view does not change, and the held version gates
    later rows from that source like any other."""
    graph, sim, twins, _ = network(0)
    r, s, target = unlinked(graph, sim)
    view = sim.view.copy()
    rows = [
        PagerankUpdate(target, s, 2.5, version=3),
        PagerankUpdate(target, s, 9.0, version=3),
        PagerankUpdate(target, s, 9.0, version=2),
    ]
    assert deliver(sim, [r], rows[:1]) == replay(twins, [r], rows[:1]) == [True]
    assert deliver(sim, [r, r], rows[1:]) == replay(twins, [r, r], rows[1:]) == [False, False]
    assert heard(sim)[r] == {s: (2.5, 3)}
    assert np.array_equal(sim.view, view)
    assert_same_state(sim, twins)


@pytest.mark.parametrize("seed", SEEDS)
def test_renumbering_keeps_every_heard_pair(seed):
    """Renumbering the pairs, as an owner change does, keeps every pair
    heard, those on no cross edge too, at its value and version: later
    rows fold as if nothing was renumbered."""
    graph, sim, twins, rng = network(seed)
    r, s, target = unlinked(graph, sim)
    first = [PagerankUpdate(target, s, 2.5, version=3)]
    assert deliver(sim, [r], first) == replay(twins, [r], first) == [True]
    for _ in range(3):
        receivers, run = draw_rows(rng, graph, sim, rng.randint(10, 60))
        assert deliver(sim, receivers, run) == replay(twins, receivers, run)
        sim._index_cross_edges()
        assert s in heard(sim)[r]
        assert_same_state(sim, twins)
    stale = [PagerankUpdate(target, s, 9.0, version=3)]
    assert deliver(sim, [r], stale) == replay(twins, [r], stale) == [False]
    assert_same_state(sim, twins)


@pytest.mark.parametrize("seed", SEEDS)
def test_length_rule_matches_sequential_fold(seed):
    """One rule for every delivery length: many short deliveries, one
    row up to a few dozen, fold like the sequential loop."""
    graph, sim, twins, rng = network(seed)
    for _ in range(6):
        receivers, run = draw_rows(rng, graph, sim, rng.randint(1, 60))
        cuts = sorted({0, len(run), *rng.choices(range(len(run) + 1), k=8)})
        expected = replay(twins, receivers, run)
        assert deliver(sim, receivers, run, cuts) == expected
        assert_same_state(sim, twins)


def test_empty_run_applies_nothing():
    _, sim, _, _ = network(0)
    view = sim.view.copy()
    applied = sim._deliver(np.empty(0, dtype=np.int64), UpdateColumns.empty())
    assert applied.size == 0
    assert heard(sim) == [{} for _ in range(PEERS)]
    assert np.array_equal(sim.view, view)
