"""Tests of the peer state machine."""

import numpy as np
import pytest

from repro.graphs import LinkGraph, two_peer_example
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
        outcome = a.compute_pass(d, 1e-6, peer_of)
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
        a.compute_pass(0.85, 1e-6, peer_of)
        first = dict(a.rank)
        b = Peer(0, [2, 1, 0], g)  # same docs, different order
        b.compute_pass(0.85, 1e-6, peer_of)
        for doc in (0, 1, 2):
            assert b.rank[doc] == first[doc]

    def test_quiet_documents_do_not_publish(self, setup):
        g, peer_of, a, _ = setup
        # With a huge epsilon nothing is significant: published values
        # stay at the initial rank even though ranks moved.
        a.compute_pass(0.85, 0.99, peer_of)
        assert all(v == 1.0 for v in a.published.values())
        assert len(a.outbox) == 0

    def test_remote_updates_staged_for_cross_links(self, setup):
        g, peer_of, a, _ = setup
        # On the first pass only doc 1 moves (its in-link contributions
        # sum to 1/3 + 1/2), and doc 1 has no cross links; by the
        # second pass doc 1's change has propagated to doc 2, whose
        # cross link 2->5 must then be staged for peer 1.
        a.compute_pass(0.85, 1e-6, peer_of)
        first = {u.target_doc for b in a.outbox.batches() for u in b}
        assert first == set()
        a.compute_pass(0.85, 1e-6, peer_of)
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


class TestDeferral:
    def test_defer_and_take(self, setup):
        _, _, a, _ = setup
        ups = [PagerankUpdate(3, 0, 1.5), PagerankUpdate(5, 2, 1.5)]
        a.defer(1, ups)
        assert a.deferred_count == 2
        taken = a.take_deferred(1)
        assert taken == ups
        assert a.deferred_count == 0
        assert a.take_deferred(1) == []

    def test_newest_value_wins(self, setup):
        _, _, a, _ = setup
        a.defer(1, [PagerankUpdate(3, 0, 1.0)])
        a.defer(1, [PagerankUpdate(3, 0, 2.0)])
        taken = a.take_deferred(1)
        assert len(taken) == 1
        assert taken[0].value == 2.0

    def test_distinct_pairs_coexist(self, setup):
        _, _, a, _ = setup
        a.defer(1, [PagerankUpdate(3, 0, 1.0)])
        a.defer(1, [PagerankUpdate(5, 2, 1.0)])
        assert a.deferred_count == 2


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
    def test_crash_wipes_outbox_and_deferred_keeps_ranks(self, setup):
        g, peer_of, a, _ = setup
        a.receive(PagerankUpdate(0, 3, 5.0, version=1))
        a.compute_pass(0.85, 1e-3, peer_of)
        a.defer(1, [PagerankUpdate(3, 0, 1.5)])
        staged = len(a.outbox)
        assert staged > 0
        ranks_before = dict(a.rank)
        published_before = dict(a.published)
        lost = a.crash_volatile()
        assert lost == staged + 1
        assert len(a.outbox) == 0 and a.deferred_count == 0
        assert a.rank == ranks_before
        assert a.published == published_before

    def test_reboot_republish_restages_published_values(self, setup):
        g, peer_of, a, _ = setup
        a.receive(PagerankUpdate(0, 3, 5.0, version=1))
        a.compute_pass(0.85, 1e-3, peer_of)
        a.crash_volatile()
        staged = a.reboot_republish(peer_of)
        assert staged > 0
        batches = a.outbox.batches()
        for batch in batches:
            for u in batch:
                # Replays carry the *current* publish version so
                # receivers that saw the original suppress them.
                assert u.version == a._publish_version[u.source_doc]
                assert u.value == a.published[u.source_doc]

    def test_reboot_republish_nothing_if_never_published(self, setup):
        _, peer_of, a, _ = setup
        assert a.reboot_republish(peer_of) == 0


class TestMigrationDeterminism:
    """Surrendered state must have a canonical (sorted) key order no
    matter how the caller ordered the doc list — adopters insert in
    returned order, so this keeps migrated peers' dict layouts
    reproducible across runs."""

    def test_surrender_state_order_canonical(self, setup):
        g, _, a, _ = setup
        state = a.surrender_documents([2, 0, 1])
        assert list(state) == [0, 1, 2]
        assert a.documents.size == 0

    def test_surrender_adopt_round_trip(self, setup):
        g, peer_of, a, b = setup
        ranks_before = dict(a.rank)
        state = a.surrender_documents([1, 0, 2])
        b.adopt_documents(state)
        assert list(b.documents) == [0, 1, 2, 3, 4, 5]
        for doc in (0, 1, 2):
            assert b.rank[doc] == ranks_before[doc]
            assert b.owns(doc) and not a.owns(doc)
