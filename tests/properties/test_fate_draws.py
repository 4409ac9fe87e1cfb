"""Property sweep: one bulk fate draw equals the scalar draws.

:meth:`FaultPlan.roll_attempts` draws the fates of a whole run of send
attempts, and the acks they earn, for the reliable transport's columnar
walk.  It must consume the plan's generator exactly as the scalar
protocol does — per attempt, :meth:`FaultPlan.roll_send`, then one
:meth:`FaultPlan.roll_ack_drop` per copy delivered at once to a live
receiver until an ack gets through — so every outcome, and the
generator's next draw, match.  Cases are drawn with the stdlib
:mod:`random` generator over 200 seeds and vary the run length, the
live mask and the drop, ack-drop, duplicate and delay rates (zero
rates included, since they skip draws).
"""

import random

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec

SEEDS = range(200)


def scalar_fates(plan, senders, receivers, live):
    """The reference: the scalar calls, attempt by attempt."""
    out = []
    for sender, receiver, up in zip(senders, receivers, live):
        fate = plan.roll_send(0, sender, receiver)
        acks = lost = 0
        acked = False
        if up and not fate.dropped:
            copies = [fate.delay] + ([fate.duplicate_delay] if fate.duplicated else [])
            for delay in copies:
                if delay == 0 and not acked:
                    acks += 1
                    if plan.roll_ack_drop(0):
                        lost += 1
                    else:
                        acked = True
        out.append(
            (fate.dropped, fate.duplicated, fate.delay, fate.duplicate_delay,
             acks, lost, acked)
        )
    return out


def draw_case(seed):
    rng = random.Random(seed)
    spec = FaultSpec(
        drop_rate=rng.choice([0.0, 0.1, 0.2, 0.5, 1.0]),
        ack_drop_rate=rng.choice([None, 0.0, 0.1, 0.3]),
        duplicate_rate=rng.choice([0.0, 0.0, 0.0, 0.2]),
        delay_rate=rng.choice([0.0, 0.0, 0.0, 0.3]),
        max_delay_passes=rng.randint(1, 4),
    )
    n = rng.choice([0, 1, 2, 7, 50, 120, 300])
    live_frac = rng.choice([0.0, 0.5, 0.9, 1.0])
    live = [rng.random() < live_frac for _ in range(n)]
    senders = [rng.randrange(10) for _ in range(n)]
    receivers = [rng.randrange(10) for _ in range(n)]
    return spec, senders, receivers, live


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_draw_matches_scalar_draws(seed):
    spec, senders, receivers, live = draw_case(seed)
    bulk_plan = FaultPlan(spec, seed=seed)
    scalar_plan = FaultPlan(spec, seed=seed)
    fates = bulk_plan.roll_attempts(
        0, np.array(senders, dtype=np.int64), np.array(receivers, dtype=np.int64),
        np.array(live, dtype=bool),
    )
    got = list(
        zip(
            fates.dropped.tolist(), fates.duplicated.tolist(), fates.delay.tolist(),
            fates.duplicate_delay.tolist(), fates.acks.tolist(),
            fates.ack_drops.tolist(), fates.acked.tolist(),
        )
    )
    assert got == scalar_fates(scalar_plan, senders, receivers, live)
    assert bulk_plan._rng.random() == scalar_plan._rng.random()
