"""Tests of the peer journal: log-then-apply, compaction, bitwise replay."""

import numpy as np
import pytest

from repro.graphs import two_peer_example
from repro.p2p import PagerankUpdate, Peer
from repro.recovery import PeerJournal, WriteAheadLog, durable_state_equal


def make_journal(snapshot_interval=256, wal=None):
    g = two_peer_example()
    peer_of = np.array([0, 0, 0, 1, 1, 1])
    peer = Peer(0, [0, 1, 2], g)
    journal = PeerJournal(
        peer, g,
        damping=0.85, epsilon=1e-6, peer_of=peer_of,
        snapshot_interval=snapshot_interval, wal=wal,
    )
    return g, peer_of, peer, journal


def churn_mutations(journal, rounds=10):
    """Drive a non-trivial mix of batches and recomputes through the
    journal (values chosen to exercise inexact binary64 floats)."""
    for i in range(rounds):
        journal.apply_batch(
            [
                PagerankUpdate(
                    target_doc=i % 3, source_doc=3 + (i % 3),
                    value=0.1 + 0.3 * i, version=i + 1,
                ),
            ]
        )
        for doc in (0, 1, 2):
            journal.apply_recompute(doc)


class TestLogThenApply:
    def test_batch_is_journaled_and_applied(self):
        _, _, peer, journal = make_journal()
        applied = journal.apply_batch(
            [PagerankUpdate(target_doc=0, source_doc=3, value=0.5, version=1)]
        )
        assert applied == 1
        assert peer.remote_values[3] == 0.5
        assert journal.records_appended == 1
        assert journal.wal.records()[0].kind == "recv"

    def test_recompute_is_journaled(self):
        _, _, peer, journal = make_journal()
        journal.apply_recompute(0)
        assert journal.wal.records()[0].kind == "comp"
        assert journal.wal.records()[0].payload == 0

    def test_rebind_rejects_foreign_peer(self):
        g, _, _, journal = make_journal()
        with pytest.raises(ValueError):
            journal.rebind(Peer(1, [3, 4, 5], g))


class TestReplay:
    def test_replay_is_bitwise_equal(self):
        _, _, peer, journal = make_journal()
        churn_mutations(journal)
        replayed = journal.replay()
        assert durable_state_equal(replayed, peer)
        assert journal.verify_replay()

    def test_replay_after_compaction_is_bitwise_equal(self):
        # Interval small enough that several snapshots fire mid-run:
        # replay must come from snapshot + tail, not the full history.
        _, _, peer, journal = make_journal(snapshot_interval=7)
        churn_mutations(journal, rounds=12)
        assert journal.snapshots_taken >= 2
        assert len(journal.wal) < journal.records_appended
        assert durable_state_equal(journal.replay(), peer)

    def test_replayed_peer_outbox_is_empty(self):
        _, _, peer, journal = make_journal()
        churn_mutations(journal, rounds=3)
        assert durable_state_equal(journal.replay(), peer)
        assert len(journal.replay().outbox) == 0

    def test_duplicate_batches_resuppress_on_replay(self):
        _, _, peer, journal = make_journal()
        update = PagerankUpdate(target_doc=0, source_doc=3, value=0.5, version=1)
        journal.apply_batch([update])
        journal.apply_recompute(0)
        # Equal-version replay of the same update: suppressed live,
        # and must be suppressed identically during replay.
        assert journal.apply_batch([update]) == 0
        assert durable_state_equal(journal.replay(), peer)

    def test_replay_counters(self):
        _, _, _, journal = make_journal()
        churn_mutations(journal, rounds=2)
        journal.replay()
        assert journal.replays == 1
        assert journal.replayed_records == len(journal.wal)


class TestFileBackedJournal:
    def test_file_wal_mirror_records_mutations(self, tmp_path):
        path = str(tmp_path / "peer0.wal.jsonl")
        _, _, peer, journal = make_journal(wal=WriteAheadLog(path))
        churn_mutations(journal, rounds=3)
        journal.wal.close()
        kinds = [r.kind for r in WriteAheadLog.load(path)]
        assert kinds.count("recv") == 3
        assert kinds.count("comp") == 9
