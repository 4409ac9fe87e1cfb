"""Tests of the write-ahead log record format and store."""

import pytest

from repro.recovery import WalRecord, WriteAheadLog
from repro.recovery.wal import RECORD_KINDS


class TestWalRecord:
    def test_kind_validated(self):
        for kind in ("nope", "adopt", "drop"):
            with pytest.raises(ValueError):
                WalRecord(kind=kind, payload=None)

    def test_all_kinds_accepted(self):
        for kind in RECORD_KINDS:
            WalRecord(kind=kind, payload=())

    def test_recv_round_trip_repr_exact(self):
        # 0.1 has no exact binary64 representation; repr round-trips it.
        rec = WalRecord(kind="recv", payload=((3, 7, 0.1, 2), (4, 7, 1e-17, 3)))
        back = WalRecord.from_json(rec.to_json())
        assert back == rec
        assert back.payload[0][2] == 0.1
        assert back.payload[1][2] == 1e-17

    def test_comp_round_trip(self):
        rec = WalRecord(kind="comp", payload=42)
        assert WalRecord.from_json(rec.to_json()) == rec


class TestWriteAheadLog:
    def test_append_and_iterate_in_order(self):
        wal = WriteAheadLog()
        for doc in range(5):
            wal.append(WalRecord(kind="comp", payload=doc))
        assert len(wal) == 5
        assert [r.payload for r in wal] == [0, 1, 2, 3, 4]
        assert wal.appended == 5

    def test_truncate_clears_but_keeps_counters(self):
        wal = WriteAheadLog()
        for doc in range(3):
            wal.append(WalRecord(kind="comp", payload=doc))
        assert wal.truncate() == 3
        assert len(wal) == 0
        assert wal.appended == 3
        assert wal.truncated == 3
        wal.append(WalRecord(kind="comp", payload=9))
        assert [r.payload for r in wal] == [9]
        assert wal.appended == 4

    def test_file_mirror_survives_truncation(self, tmp_path):
        path = str(tmp_path / "peer0.wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append(WalRecord(kind="comp", payload=1))
        wal.append(WalRecord(kind="recv", payload=((0, 1, 0.5, 1),)))
        wal.truncate()
        wal.append(WalRecord(kind="comp", payload=2))
        wal.close()
        # The mirror is the full history, not the compacted view.
        loaded = WriteAheadLog.load(path)
        assert [r.kind for r in loaded] == ["comp", "recv", "comp"]
        assert loaded[1].payload == ((0, 1, 0.5, 1),)
