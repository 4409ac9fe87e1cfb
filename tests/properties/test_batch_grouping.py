"""Property sweep: the simulator's batch grouping keeps its order.

``repro.simulation.engine._batches`` groups a pass's rows (sender,
receiver, update) into one batch per (sender, receiver) pair with
array operations.  Its order is part of a seeded run's identity
(fault injection draws and location caches price batches in it):
senders ascending, each sender's receivers in first-staging order, rows
in staging order.  The sweep compares it with a plain dict that
appends rows as they come, over 50 seeds of random runs that mix empty
runs, several runs from one sender and receivers repeated within a
sender.  Runs may also come with senders out of order (a pass's reboot
republishes before its publishes); a sender's rows then keep the order
of its runs.  The packed sort the grouping uses (``_stable_sort``) is
checked against NumPy's stable argsort.
"""

import random

import numpy as np
import pytest

from repro.p2p.messages import UpdateColumns
from repro.simulation.engine import _batches, _stable_sort

PEERS = 7


def draw_runs(rng):
    """Runs in sender order; row ``i`` of a run carries target ``i``
    of a running count, so every row is identifiable."""
    runs, row = [], 0
    senders = sorted(rng.choices(range(PEERS), k=rng.randint(0, 6)))
    for sender in senders:
        length = rng.choice([0, 1, rng.randint(2, 30)])
        fan = rng.sample(range(PEERS), rng.randint(1, 3))
        dests = np.array([rng.choice(fan) for _ in range(length)], dtype=np.int64)
        ids = np.arange(row, row + length, dtype=np.int64)
        row += length
        runs.append(
            (sender, dests, UpdateColumns(ids, ids + 1000, ids * 0.5, ids % 4))
        )
    return runs


def grouped(runs):
    """:func:`_batches` over the runs' rows."""
    senders = np.repeat(
        np.array([s for s, _, _ in runs], dtype=np.int64),
        [len(u) for _, _, u in runs],
    )
    dests = np.concatenate([d for _, d, _ in runs] or [senders])
    return _batches(senders, dests, UpdateColumns.concat([u for _, _, u in runs]), PEERS)


def reference(runs):
    """``{(sender, receiver): [row ids]}`` in first-appearance order."""
    out = {}
    for sender, dests, updates in runs:
        for dest, target in zip(dests.tolist(), updates.target.tolist()):
            out.setdefault((sender, dest), []).append(target)
    return out


@pytest.mark.parametrize("seed", range(50))
def test_batches_match_dict_grouping(seed):
    runs = draw_runs(random.Random(seed))
    batches = grouped(runs)
    expected = reference(runs)
    assert len(batches) == len(expected)
    pairs = list(zip(batches.senders.tolist(), batches.receivers.tolist()))
    assert pairs == list(expected)
    sizes = [len(rows) for rows in expected.values()]
    assert batches.offsets.tolist() == np.cumsum([0] + sizes).tolist()
    assert batches.updates.target.tolist() == [r for rows in expected.values() for r in rows]
    # Every column moves with its row.
    target = batches.updates.target
    assert np.array_equal(batches.updates.source, target + 1000)
    assert np.array_equal(batches.updates.value, target * 0.5)
    assert np.array_equal(batches.updates.version, target % 4)


@pytest.mark.parametrize("seed", range(50))
def test_senders_out_of_order_group_like_sorted_runs(seed):
    rng = random.Random(seed)
    runs = draw_runs(rng)
    shuffled = rng.sample(runs, len(runs))
    batches = grouped(shuffled)
    expected = reference(sorted(shuffled, key=lambda run: run[0]))
    pairs = list(zip(batches.senders.tolist(), batches.receivers.tolist()))
    assert pairs == list(expected)
    assert batches.updates.target.tolist() == [r for rows in expected.values() for r in rows]


def test_no_runs_and_empty_runs_give_no_batches():
    empty = UpdateColumns.empty()
    for runs in ([], [(2, np.empty(0, dtype=np.int64), empty)]):
        batches = grouped(runs)
        assert len(batches) == 0
        assert batches.offsets.tolist() == [0]
        assert len(batches.updates) == 0


def test_one_sender_keeps_first_staging_order_of_receivers():
    dests = np.array([5, 2, 5, 0, 2, 5], dtype=np.int64)
    ids = np.arange(6, dtype=np.int64)
    batches = grouped([(3, dests, UpdateColumns(ids, ids, ids * 1.0, ids))])
    assert batches.senders.tolist() == [3, 3, 3]
    assert batches.receivers.tolist() == [5, 2, 0]
    assert batches.offsets.tolist() == [0, 3, 5, 6]
    assert batches.updates.target.tolist() == [0, 2, 5, 1, 4, 3]


@pytest.mark.parametrize("seed", range(20))
def test_packed_sort_is_the_stable_argsort(seed):
    """The grouping's sort packs each key above its row index; it must
    give the stable argsort's permutation, ties in row order."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, rng.choice([1, 5, 1000, 2**40]), size=rng.integers(0, 3000))
    ordered, order = _stable_sort(keys)
    assert order.tolist() == np.argsort(keys, kind="stable").tolist()
    assert ordered.tolist() == np.sort(keys).tolist()


def test_packed_sort_refuses_keys_too_large_to_pack():
    with pytest.raises(OverflowError):
        _stable_sort(np.array([0, 2**61, 3], dtype=np.int64))
