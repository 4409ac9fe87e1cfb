"""Tests of update messages and per-destination batching."""

import numpy as np
import pytest

from repro.p2p import (
    MESSAGE_SIZE_BYTES,
    MessageBatch,
    Outbox,
    PagerankUpdate,
    UpdateColumns,
)


class TestPagerankUpdate:
    def test_fields_and_size(self):
        u = PagerankUpdate(target_doc=5, source_doc=2, value=1.25)
        assert u.size_bytes == MESSAGE_SIZE_BYTES == 24

    def test_frozen(self):
        u = PagerankUpdate(1, 2, 3.0)
        with pytest.raises(AttributeError):
            u.value = 9.0

    def test_negative_value_allowed(self):
        # deletions carry negated ranks (§3.1)
        u = PagerankUpdate(1, 2, -0.5)
        assert u.value == -0.5


class TestMessageBatch:
    def test_accumulates(self):
        b = MessageBatch(sender_peer=0, receiver_peer=1)
        b.add(PagerankUpdate(1, 0, 1.0))
        b.add(PagerankUpdate(2, 0, 1.0))
        assert len(b) == 2
        assert b.size_bytes == 48
        assert all(isinstance(u, PagerankUpdate) for u in b)


class TestOutbox:
    def test_groups_by_destination(self):
        ob = Outbox(owner_peer=7)
        ob.stage(1, PagerankUpdate(10, 0, 1.0))
        ob.stage(2, PagerankUpdate(11, 0, 1.0))
        ob.stage(1, PagerankUpdate(12, 0, 1.0))
        assert len(ob) == 3
        assert set(ob.destinations) == {1, 2}
        batches = {b.receiver_peer: b for b in ob.batches()}
        assert len(batches[1]) == 2
        assert len(batches[2]) == 1
        assert all(b.sender_peer == 7 for b in batches.values())

    def test_batches_drains(self):
        ob = Outbox(owner_peer=0)
        ob.stage(1, PagerankUpdate(1, 0, 1.0))
        assert len(ob.batches()) == 1
        assert ob.batches() == []
        assert len(ob) == 0


class TestUpdateColumns:
    def test_round_trip_and_size(self):
        ups = [PagerankUpdate(4, 1, 0.5, 2), PagerankUpdate(7, 3, 1.25, 1)]
        cols = UpdateColumns.from_updates(ups)
        assert len(cols) == 2
        assert list(cols) == ups
        assert cols.size_bytes == 2 * MESSAGE_SIZE_BYTES

    def test_take_and_concat_keep_row_order(self):
        a = UpdateColumns.from_updates([PagerankUpdate(1, 0, 1.0, 1)])
        b = UpdateColumns.from_updates(
            [PagerankUpdate(2, 0, 2.0, 1), PagerankUpdate(3, 5, 3.0, 4)]
        )
        both = UpdateColumns.concat([a, b])
        assert [u.target_doc for u in both] == [1, 2, 3]
        assert [u.value for u in both.take(np.array([2, 0]))] == [3.0, 1.0]
        assert len(UpdateColumns.concat([])) == 0


class TestOutboxOrder:
    def test_batches_in_first_staging_order(self):
        # Fault injection draws per batch in this order, so it is part
        # of a seeded faulted run's identity.
        ob = Outbox(owner_peer=0)
        ob.stage_columns(
            np.array([5, 2, 5]),
            UpdateColumns.from_updates(
                [PagerankUpdate(t, 0, 1.0, 1) for t in (50, 20, 51)]
            ),
        )
        ob.stage(9, PagerankUpdate(90, 1, 1.0, 1))
        ob.stage(2, PagerankUpdate(21, 1, 1.0, 1))
        ob.stage_columns(
            np.array([1]), UpdateColumns.from_updates([PagerankUpdate(10, 2, 1.0, 1)])
        )
        assert ob.destinations == (5, 2, 9, 1)
        batches = ob.batches()
        assert [b.receiver_peer for b in batches] == [5, 2, 9, 1]
        assert [[u.target_doc for u in b] for b in batches] == [[50, 51], [20, 21], [90], [10]]
        assert len(ob) == 0

    def test_take_columns_in_staging_order(self):
        ob = Outbox(owner_peer=0)
        ob.stage(3, PagerankUpdate(30, 0, 1.0, 1))
        ob.stage_columns(
            np.array([4, 3]),
            UpdateColumns.from_updates(
                [PagerankUpdate(40, 1, 1.0, 1), PagerankUpdate(31, 1, 1.0, 1)]
            ),
        )
        dests, cols = ob.take_columns()
        assert dests.tolist() == [3, 4, 3]
        assert cols.target.tolist() == [30, 40, 31]
        assert len(ob) == 0 and ob.batches() == []
