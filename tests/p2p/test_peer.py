"""Tests of the peer state machine."""

import numpy as np
import pytest

from repro.core.kernels import relative_change
from repro.graphs import chain_graph, two_peer_example
from repro.p2p import PagerankUpdate, Peer


@pytest.fixture()
def setup():
    """Two peers over the six-document fixture: docs 0-2 on peer 0,
    docs 3-5 on peer 1."""
    g = two_peer_example()
    peer_of = np.array([0, 0, 0, 1, 1, 1])
    a = Peer(0, [0, 1, 2], g)
    b = Peer(1, [3, 4, 5], g)
    return g, peer_of, a, b


def fresh(peer, damping=0.85):
    """The new ranks the simulator's pull hands ``compute_pass``: each
    local document recomputed from the values the peer sees."""
    return np.array([peer._fresh_rank(d, damping) for d in peer.documents])


class TestVisibility:
    def test_local_values_published(self, setup):
        _, _, a, _ = setup
        assert a.visible_value(0) == 1.0
        assert a.owns(0) and not a.owns(3)

    def test_remote_defaults_to_init(self, setup):
        _, _, a, _ = setup
        assert a.visible_value(5) == 1.0

    def test_receive_updates_remote_view(self, setup):
        _, _, a, _ = setup
        a.receive(PagerankUpdate(target_doc=0, source_doc=3, value=2.5))
        assert a.visible_value(3) == 2.5


class TestComputePass:
    def test_first_pass_matches_manual(self, setup):
        g, peer_of, a, _ = setup
        d = 0.85
        outcome = a.compute_pass(fresh(a, d), 1e-6, peer_of)
        out_deg = g.out_degrees()
        for doc in (0, 1, 2):
            expected = (1 - d) + d * sum(
                1.0 / out_deg[int(s)] for s in g.in_links(doc)
            )
            assert a.rank[doc] == pytest.approx(expected, rel=1e-12)
        assert outcome.active_documents > 0

    def test_peers_share_one_inverse_outdegree_array(self, setup):
        g, _, a, b = setup
        assert a._inv_out is b._inv_out is g.inv_out_degrees()

    def test_two_phase_semantics(self, setup):
        # All documents must read the pre-pass published values, so
        # compute order inside the peer cannot matter.
        g, peer_of, a, _ = setup
        a.compute_pass(fresh(a), 1e-6, peer_of)
        first = dict(a.rank)
        b = Peer(0, [2, 1, 0], g)  # same docs, different order
        b.compute_pass(fresh(b), 1e-6, peer_of)
        for doc in (0, 1, 2):
            assert b.rank[doc] == first[doc]

    def test_quiet_documents_do_not_publish(self, setup):
        g, peer_of, a, _ = setup
        # With a huge epsilon nothing is significant: published values
        # stay at the initial rank even though ranks moved.
        a.compute_pass(fresh(a), 0.99, peer_of)
        assert all(v == 1.0 for v in a.published.values())
        assert len(a.outbox) == 0

    def test_remote_updates_staged_for_cross_links(self, setup):
        g, peer_of, a, _ = setup
        # On the first pass only doc 1 moves (its in-link contributions
        # sum to 1/3 + 1/2), and doc 1 has no cross links; by the
        # second pass doc 1's change has propagated to doc 2, whose
        # cross link 2->5 must then be staged for peer 1.
        a.compute_pass(fresh(a), 1e-6, peer_of)
        first = {u.target_doc for b in a.outbox.batches() for u in b}
        assert first == set()
        a.compute_pass(fresh(a), 1e-6, peer_of)
        second = {u.target_doc for b in a.outbox.batches() for u in b}
        assert 5 in second


class TestEventDrivenRecompute:
    def test_recompute_single_document(self, setup):
        g, peer_of, a, _ = setup
        # doc 1's in-links (0 with outdeg 3, 4 with outdeg 2) move its
        # rank off the initial 1.0.
        rel, published = a.recompute_document(1, 0.85, 1e-6, peer_of)
        assert rel > 0
        assert published
        assert a.published[1] == a.rank[1]

    def test_recompute_requires_ownership(self, setup):
        _, peer_of, a, _ = setup
        with pytest.raises(KeyError):
            a.recompute_document(4, 0.85, 1e-6, peer_of)

    def test_below_threshold_not_published(self, setup):
        g, peer_of, a, _ = setup
        rel, published = a.recompute_document(0, 0.85, 0.99, peer_of)
        assert not published
        assert a.published[0] == 1.0

    def test_drop_to_zero_follows_engine_rule(self):
        # Doc 0 of 0 -> 1 has no in-links, so at damping 1.0 it falls
        # from 1.0 to 0.0: the engines' relative change is inf, and the
        # document publishes; recomputing the unchanged 0 reports 0.
        g = chain_graph(2)
        peer_of = np.array([0, 1])
        a = Peer(0, [0], g)
        expected = relative_change(np.array([1.0]), np.array([0.0]))[0]
        assert a.recompute_document(0, 1.0, 1e-3, peer_of) == (expected, True)
        assert expected == np.inf
        assert a.published[0] == 0.0
        assert len(a.outbox) == 1
        assert a.recompute_document(0, 1.0, 1e-3, peer_of) == (0.0, False)


class TestReceiveIdempotence:
    """Satellite: delivery must be idempotent under replay/reorder."""

    def test_newer_version_applies(self, setup):
        _, _, a, _ = setup
        assert a.receive(PagerankUpdate(0, 3, 2.0, version=1))
        assert a.receive(PagerankUpdate(0, 3, 3.0, version=2))
        assert a.visible_value(3) == 3.0

    def test_older_version_rejected(self, setup):
        _, _, a, _ = setup
        a.receive(PagerankUpdate(0, 3, 3.0, version=2))
        assert not a.receive(PagerankUpdate(0, 3, 2.0, version=1))
        assert a.visible_value(3) == 3.0

    def test_equal_version_replay_does_not_mutate(self, setup):
        # A retransmitted copy carries the same version; even if the
        # payload was corrupted or adversarially altered, the replay
        # must not touch state.
        _, _, a, _ = setup
        assert a.receive(PagerankUpdate(0, 3, 2.0, version=1))
        assert not a.receive(PagerankUpdate(0, 3, 99.0, version=1))
        assert a.visible_value(3) == 2.0
        assert a._remote_versions[3] == 1

    def test_equal_version_first_contact_applies(self, setup):
        # Version numbers start at whatever the sender says; the guard
        # must not suppress the first value ever seen for a source.
        _, _, a, _ = setup
        assert a.receive(PagerankUpdate(0, 3, 2.0, version=0))
        assert a.visible_value(3) == 2.0

    def test_out_of_order_plus_duplicates_idempotent(self, setup):
        # The same update stream, shuffled and with every message
        # duplicated, must land in the same final state as the clean
        # in-order stream.
        _, _, a, b = setup
        stream = [
            PagerankUpdate(0, 3, 1.5, version=1),
            PagerankUpdate(0, 3, 1.8, version=2),
            PagerankUpdate(0, 4, 0.7, version=1),
            PagerankUpdate(0, 3, 2.2, version=3),
            PagerankUpdate(0, 4, 0.9, version=2),
        ]
        for u in stream:
            a.receive(u)
        clean = dict(a.remote_values)

        shuffled = [
            stream[3], stream[3], stream[0], stream[4], stream[1],
            stream[4], stream[2], stream[0], stream[2], stream[1],
        ]
        for u in shuffled:
            b.receive(u)
        assert b.remote_values == clean

    def test_receive_batch_counts_applied(self, setup):
        _, _, a, _ = setup
        batch = [
            PagerankUpdate(0, 3, 1.5, version=1),
            PagerankUpdate(0, 3, 1.5, version=1),  # duplicate
            PagerankUpdate(0, 4, 0.7, version=1),
        ]
        assert a.receive_batch(batch) == 2

    def test_unversioned_mode_still_accepts_everything(self):
        g = two_peer_example()
        p = Peer(0, [0, 1, 2], g, honor_versions=False)
        assert p.receive(PagerankUpdate(0, 3, 2.0, version=5))
        assert p.receive(PagerankUpdate(0, 3, 1.0, version=1))
        assert p.visible_value(3) == 1.0


class TestCrashVolatile:
    def test_crash_wipes_outbox_keeps_ranks(self, setup):
        g, peer_of, a, _ = setup
        a.receive(PagerankUpdate(0, 3, 5.0, version=1))
        a.compute_pass(fresh(a), 1e-3, peer_of)
        staged = len(a.outbox)
        assert staged > 0
        ranks_before = dict(a.rank)
        published_before = dict(a.published)
        lost = a.crash_volatile()
        assert lost == staged
        assert len(a.outbox) == 0
        assert a.rank == ranks_before
        assert a.published == published_before

    def test_reboot_republish_restages_published_values(self, setup):
        g, peer_of, a, _ = setup
        a.receive(PagerankUpdate(0, 3, 5.0, version=1))
        a.compute_pass(fresh(a), 1e-3, peer_of)
        a.crash_volatile()
        versions = dict(a._publish_version)
        staged = a.reboot_republish(peer_of)
        # Replays carry the *current* value and publish version, so
        # receivers that saw the original suppress them: announced
        # documents ascending, each one's remote out-links in order.
        expected = [
            (1, t, s, a.published[s], versions[s])
            for s, t in ((0, 3), (0, 4), (2, 5))
            if s in versions
        ]
        assert staged == len(expected) > 0
        assert staged_rows(a) == expected
        assert a._publish_version == versions

    def test_reboot_republish_nothing_if_never_published(self, setup):
        _, peer_of, a, _ = setup
        assert a.reboot_republish(peer_of) == 0
        assert len(a.outbox) == 0


def staged_rows(peer):
    """Drain ``peer``'s outbox as ``(dest, target, source, value,
    version)`` rows, batches in order."""
    return [
        (b.receiver_peer, u.target_doc, u.source_doc, u.value, u.version)
        for b in peer.outbox.batches()
        for u in b
    ]


class TestRepublishTo:
    """Anti-entropy toward one recovered neighbour.  Peer 0 holds docs
    0-2; doc 0 links into docs 3 and 4 on peer 2, doc 2 into doc 5 on
    peer 1."""

    PEER_OF = np.array([0, 0, 0, 2, 2, 1])

    @pytest.fixture()
    def peer(self):
        g = two_peer_example()
        a = Peer(0, [0, 1, 2], g)
        # Doc 0 publishes twice (version 2), doc 1 once (no remote
        # out-links), doc 2 never.
        for version, value in ((1, 5.0), (2, 7.0)):
            a.receive(PagerankUpdate(0, 3, value, version=version))
            assert a.recompute_document(0, 0.85, 1e-3, self.PEER_OF)[1]
        assert a.recompute_document(1, 0.85, 1e-3, self.PEER_OF)[1]
        a.outbox.batches()
        assert a._publish_version == {0: 2, 1: 1}
        return a

    def test_stages_announced_documents_toward_dest_only(self, peer):
        published = dict(peer.published)
        assert peer.republish_to(2, self.PEER_OF) == 2
        assert staged_rows(peer) == [
            (2, 3, 0, published[0], 2),
            (2, 4, 0, published[0], 2),
        ]
        assert peer._publish_version == {0: 2, 1: 1}
        assert peer.published == published

    def test_unannounced_documents_are_skipped(self, peer):
        # Doc 2 is peer 1's only in-linker here, and it never published.
        assert peer.republish_to(1, self.PEER_OF) == 0
        assert len(peer.outbox) == 0

    def test_replays_current_value_and_version(self, peer):
        peer.receive(PagerankUpdate(1, 4, 9.0, version=1))
        assert peer.recompute_document(1, 0.85, 1e-3, self.PEER_OF)[1]
        assert peer.recompute_document(2, 0.85, 1e-3, self.PEER_OF)[1]
        peer.outbox.batches()
        versions = dict(peer._publish_version)
        assert peer.republish_to(1, self.PEER_OF) == 1
        assert staged_rows(peer) == [(1, 5, 2, peer.published[2], versions[2])]
        assert peer.republish_to(2, self.PEER_OF) == 2
        assert [row[1:3] for row in staged_rows(peer)] == [(3, 0), (4, 0)]
        assert peer._publish_version == versions

    def test_appends_after_staged_updates(self, peer):
        # A republish lands behind what is already staged, in the same
        # per-destination batch.
        peer.receive(PagerankUpdate(0, 3, 11.0, version=3))
        assert peer.recompute_document(0, 0.85, 1e-3, self.PEER_OF)[1]
        peer.republish_to(2, self.PEER_OF)
        value = peer.published[0]
        batches = peer.outbox.batches()
        assert [b.receiver_peer for b in batches] == [2]
        assert [(u.target_doc, u.value, u.version) for u in batches[0]] == [
            (3, value, 3), (4, value, 3), (3, value, 3), (4, value, 3),
        ]
