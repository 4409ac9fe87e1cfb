"""Property sweep: the simulator's pass step equals per-peer ``compute_pass``.

:class:`~repro.simulation.P2PPagerankSimulation` keeps every peer's
documents in arrays (``rank``, ``published``, ``version``, owned per
``_peer_of``) and runs step 2 of a pass for all live peers at once
(``_recompute``): the shard step recomputes the live frontier from the
view and gates it by ε, then one publish and one staging go over every
publisher.  That must do what twin :class:`~repro.p2p.peer.Peer`
objects holding the same state do when each live one, ascending, runs
:meth:`~repro.p2p.peer.Peer.compute_pass` on every document's row
pulled from the same view: the same batches in the same order once the
simulator's rows are grouped (senders ascending, each sender's
receivers in first-staging order, its documents ascending and their
out-links in CSR order), the same published values at the same
versions, and the same active count, largest change and computed
count.  A reboot republish is the same
staging over one peer's published documents and must equal
:meth:`Peer.reboot_republish`.

Each of 20 seeds warms a network up for a few passes, then compares one
step with every peer up, with a random set of absent peers, and after a
§3.1 re-homing move of one peer's documents to its ring successors.  A
move, away or back home, must leave the documents' last holders seeing
them at their published values.
"""

import random

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, FixedFractionChurn, P2PNetwork, Peer
from repro.p2p.guid import document_guid
from repro.simulation import P2PPagerankSimulation
from repro.simulation.engine import _batches

SEEDS = range(20)
DOCS, PEERS = 150, 6
EPSILON = 1e-3


def warmed(seed, **kwargs):
    """A simulator after a few seeded passes under churn, so ranks,
    published values and versions differ from document to document."""
    graph = broder_graph(DOCS, seed=seed)
    placement = DocumentPlacement.random(DOCS, PEERS, seed=seed + 1)
    sim = P2PPagerankSimulation(
        graph, P2PNetwork(PEERS, placement), epsilon=EPSILON, **kwargs
    )
    passes = random.Random(seed).randint(1, 5)
    sim.run(
        max_passes=passes,
        availability=FixedFractionChurn(PEERS, 0.75, seed=seed + 2),
    )
    return sim


def twins(sim):
    """One :class:`Peer` per simulated peer, holding its documents'
    state."""
    out = []
    for p in range(PEERS):
        twin = Peer(p, np.flatnonzero(sim._peer_of == p), sim.graph)
        docs = twin.documents.tolist()
        twin.rank = dict(zip(docs, sim.rank[docs].tolist()))
        twin.published = dict(zip(docs, sim.published[docs].tolist()))
        twin._publish_version = {
            d: v for d, v in zip(docs, sim.version[docs].tolist()) if v
        }
        out.append(twin)
    return out


def drained(peers):
    """Every peer's staged updates as ``(sender, receiver, target,
    source, value, version)`` rows, peers in order and each peer's
    batches in drain order."""
    return [
        (p.peer_id, b.receiver_peer, u.target_doc, u.source_doc, u.value, u.version)
        for p in peers
        for b in p.outbox.batches()
        for u in b
    ]


def assert_same_rows(rows, expected):
    """The simulator's staged ``rows``, grouped into batches, are the
    ``expected`` drained rows."""
    batches = _batches(*rows, PEERS)
    got = zip(
        np.repeat(batches.senders, batches.sizes).tolist(),
        np.repeat(batches.receivers, batches.sizes).tolist(),
        batches.updates,
    )
    assert [
        (s, r, u.target_doc, u.source_doc, u.value, u.version) for s, r, u in got
    ] == expected


def assert_same_state(sim, peers):
    for twin in peers:
        docs = twin.documents.tolist()
        assert sim.rank[docs].tolist() == list(twin.rank.values())
        assert sim.published[docs].tolist() == [twin.published[d] for d in docs]
        assert sim.version[docs].tolist() == [
            twin._publish_version.get(d, 0) for d in docs
        ]


def assert_step_matches_twins(sim, live):
    peers = twins(sim)
    # The twins compute every document from the view; the simulator's
    # step recomputes only its frontier, whose other rows must come out
    # at the same bits.
    new = sim._workspace.pull_edges(sim.view, sim.damping)
    active, max_change, computed = 0, 0.0, 0
    for twin in peers:
        if not live[twin.peer_id]:
            continue
        outcome = twin.compute_pass(new[twin.documents], EPSILON, sim._peer_of)
        active += outcome.active_documents
        max_change = max(max_change, outcome.max_rel_change)
        computed += twin.documents.size
    got_active, got_max, got_computed, _ = sim._recompute(0, live)
    rows, _ = sim._stage(sim._step.published)
    assert (got_active, got_max, got_computed) == (active, max_change, computed)
    assert_same_rows(rows, drained(peers))
    assert_same_state(sim, peers)
    return active


@pytest.mark.parametrize("seed", SEEDS)
def test_step_matches_compute_pass_with_every_peer_up(seed):
    sim = warmed(seed)
    active = assert_step_matches_twins(sim, np.ones(PEERS, dtype=bool))
    assert active > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_step_matches_compute_pass_with_peers_absent(seed):
    sim = warmed(seed)
    live = np.random.default_rng(seed).random(PEERS) < 0.6
    live[seed % PEERS] = True
    assert_step_matches_twins(sim, live)


@pytest.mark.parametrize("seed", SEEDS)
def test_step_matches_compute_pass_after_rehoming(seed):
    sim = warmed(seed, rehoming_after=1)
    gone = seed % PEERS
    live = np.ones(PEERS, dtype=bool)
    live[gone] = False
    sim._index_cross_edges()
    sim._absence[:] = 0
    sim._absence[gone] = 1
    before = sim._peer_of.copy()
    sim._rehome(live)
    assert not np.any(sim._peer_of == gone)
    assert np.any(sim._peer_of != sim._home_peer)
    assert_evacuated_knowledge(sim, before == gone)
    assert_step_matches_twins(sim, live)


@pytest.mark.parametrize("seed", SEEDS)
def test_moved_documents_leave_holders_the_published_value(seed):
    """A document that moves, off an absent peer or back home, leaves
    its last published value with the peer that held it: every edge from
    it into a document that peer kept reads that value, as it did while
    the two were co-located."""
    sim = warmed(seed, rehoming_after=1)
    gone = seed % PEERS
    live = np.ones(PEERS, dtype=bool)
    live[gone] = False
    sim._index_cross_edges()
    sim._absence[:] = 0
    sim._absence[gone] = 1
    assert_holders_see_published(sim, live)
    sim._absence[:] = 0
    assert_holders_see_published(sim, np.ones(PEERS, dtype=bool))


@pytest.mark.parametrize("seed", SEEDS)
def test_evacuated_documents_go_to_the_first_live_successor(seed):
    """Re-homing's owner lookup (memoised ring positions and the next
    live position) names the peer :meth:`ChordRing.owner_excluding`
    names, whichever peers are absent."""
    sim = warmed(seed, rehoming_after=1)
    rng = np.random.default_rng(seed)
    at_home = np.flatnonzero(sim._peer_of == sim._home_peer)
    gone = sim._peer_of[at_home[seed % at_home.size]]
    live = rng.random(PEERS) < 0.5
    live[gone] = False
    live[(gone + 1) % PEERS] = True
    sim._index_cross_edges()
    sim._absence[:] = (~live).astype(np.int64)
    # Documents of live home peers come home in the same call.
    leaving = ~live[sim._peer_of] & ~live[sim._home_peer]
    sim._rehome(live)
    assert leaving.any()
    dead = set(np.flatnonzero(~live).tolist())
    ring = sim.network.ring
    for doc in np.flatnonzero(leaving).tolist():
        assert sim._peer_of[doc] == ring.owner_excluding(document_guid(doc), dead)


def assert_holders_see_published(sim, live):
    holder = sim._peer_of.copy()
    sim._rehome(live)
    moved = holder != sim._peer_of
    assert moved.any()
    ws = sim._workspace
    kept = np.flatnonzero(moved[ws.src] & (sim._peer_of[ws.dst] == holder[ws.src]))
    assert sim.view[kept].tolist() == sim.published[ws.src[kept]].tolist()


def assert_evacuated_knowledge(sim, evacuated):
    """An evacuated document's new owner has heard every in-link source
    that was evacuated with it, at that source's published value and
    version: the knowledge moves with the document."""
    heard = {
        key: (value, version) for key, value, version in sim.heard_rows().tolist()
    }
    rev = sim.graph.reverse()
    for d in np.flatnonzero(evacuated).tolist():
        owner = int(sim._peer_of[d])
        for s in rev.indices[rev.indptr[d]:rev.indptr[d + 1]].tolist():
            if evacuated[s] and sim._peer_of[s] != owner:
                expected = (sim.published[s], sim.version[s])
                assert heard[owner * DOCS + s] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_reboot_republish_matches_peer(seed):
    spec = FaultSpec(drop_rate=0.1)
    sim = warmed(seed, faults=FaultPlan(spec, seed=seed + 3))
    staged = 0
    for twin in twins(sim):
        staged += twin.reboot_republish(sim._peer_of)
        docs = np.flatnonzero((sim._peer_of == twin.peer_id) & (sim.version > 0))
        rows, _ = sim._stage(docs)
        assert_same_rows(rows, drained([twin]))
    assert staged > 0
