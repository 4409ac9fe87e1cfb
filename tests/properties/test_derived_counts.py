"""Property sweep: both transports' "still owed" counts come from their rows.

:class:`~repro.faults.ReliableTransport` derives its undeliverable and
unacked counts, its black-holed links and its abort diagnostics from
its parked and flight tables; :class:`~repro.runtime.reliability.
FlightTracker` derives its abandoned count and mass from the spent
flights it keeps per receiver.  Each sweep drives one of them through
50 seeds of random operations and replays the same operations on a
plain dict model kept here, comparing every count after every step.

The simulator sweep draws no random faults (every attempt either gets
through or, at drop rate 1, is lost), so its outcomes follow from
partitions and dead receivers alone and the model can track each
flight exactly: retransmit on the capped backoff, park once the budget
is spent, relaunch a parked batch once a blockage it saw has cleared,
wipe a crashed sender's flights and parked batches.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    Partition,
    ReliabilityConfig,
    ReliableTransport,
)
from repro.p2p.messages import (
    BatchAck,
    BatchColumns,
    MessageBatch,
    PagerankUpdate,
    UpdateColumns,
)
from repro.runtime.reliability import FlightTracker

PEERS = 5
PASSES = 60


def draw_config(rng):
    return ReliabilityConfig(
        ack_timeout_passes=rng.randint(1, 2),
        max_retries=rng.randint(0, 3),
        max_retry_delay_passes=rng.randint(1, 4),
    )


def draw_partitions(rng):
    spells = []
    for _ in range(rng.randint(0, 3)):
        a = rng.randrange(PEERS)
        b = rng.choice([None] + [p for p in range(PEERS) if p != a])
        start = rng.randrange(PASSES)
        end = rng.choice([None, start + rng.randint(1, 30)])
        spells.append(Partition(a, b, start_pass=start, end_pass=end))
    return tuple(spells)


def blocked(spells, t, sender, receiver):
    return any(p.blocks(t, sender, receiver) for p in spells)


class TransportModel:
    """Plain-dict replay of the reliable transport without random faults."""

    def __init__(self, config, spells, drop):
        self.config, self.spells, self.drop = config, spells, drop
        self.flights = {}  # fid -> [sender, receiver, size, attempts, due]
        self.parked = []  # [sender, receiver, size, undeliverable], parking order
        self.next_fid = 0

    def walk(self, t, fid, live):
        sender, receiver, _, attempts, _ = self.flights[fid]
        self.flights[fid][4] = t + self.config.retry_delay(attempts)
        if blocked(self.spells, t, sender, receiver):
            return
        if live[receiver] and not self.drop:
            del self.flights[fid]

    def launch(self, t, sender, receiver, size, live):
        fid = self.next_fid
        self.next_fid += 1
        self.flights[fid] = [sender, receiver, size, 1, 0]
        self.walk(t, fid, live)

    def tick(self, t, live):
        for fid in sorted(f for f, row in self.flights.items() if row[4] <= t):
            sender, receiver, size, attempts, _ = self.flights[fid]
            if attempts > self.config.max_retries:
                del self.flights[fid]
                down = blocked(self.spells, t, sender, receiver) or not live[receiver]
                self.parked.append([sender, receiver, size, down])
            else:
                self.flights[fid][3] += 1
                self.walk(t, fid, live)
        kept, healed = [], []
        for row in self.parked:
            down = blocked(self.spells, t, row[0], row[1]) or not live[row[1]]
            (healed if row[3] and not down else kept).append(row)
            row[3] = row[3] or down
        self.parked = kept
        for sender, receiver, size, _ in healed:
            self.launch(t, sender, receiver, size, live)

    def wipe_sender(self, peer):
        lost = sum(r[2] for r in self.flights.values() if r[0] == peer)
        lost += sum(r[2] for r in self.parked if r[0] == peer)
        self.flights = {f: r for f, r in self.flights.items() if r[0] != peer}
        self.parked = [r for r in self.parked if r[0] != peer]
        return lost

    def black_holed_links(self):
        links = Counter()
        for sender, receiver, size, _ in self.parked:
            links[sender, receiver] += size
        return dict(links)

    def unacked(self):
        return sum(r[2] for r in self.flights.values())

    def parked_updates(self):
        return sum(r[2] for r in self.parked)


def one_batch(sender, receiver, size):
    ids = np.arange(size, dtype=np.int64)
    return BatchColumns(
        np.array([sender]), np.array([receiver]), np.array([0, size]),
        UpdateColumns(ids, ids + 100, ids * 0.25 - 1.0, np.zeros(size, dtype=np.int64)),
    )


@pytest.mark.parametrize("seed", range(50))
def test_transport_counts_match_dict_model(seed):
    rng = random.Random(seed)
    config, spells, drop = draw_config(rng), draw_partitions(rng), rng.random() < 0.3
    spec = FaultSpec(drop_rate=1.0 if drop else 0.0, partitions=spells)
    tr = ReliableTransport(
        FaultPlan(spec, seed=seed), config,
        lambda batch: np.ones(len(batch.updates), dtype=bool),
    )
    model = TransportModel(config, spells, drop)
    down_rate = rng.choice([0.0, 0.2, 0.5])
    for t in range(PASSES):
        live = np.array([rng.random() >= down_rate for _ in range(PEERS)])
        if rng.random() < 0.1:
            peer = rng.randrange(PEERS)
            assert tr.wipe_sender(peer) == model.wipe_sender(peer)
        tr.begin_pass(t)
        tr.tick(t, live)
        model.tick(t, live)
        for _ in range(rng.randint(0, 3)):
            sender, receiver = rng.sample(range(PEERS), 2)
            size = rng.randint(1, 6)
            tr.send(t, one_batch(sender, receiver, size), live)
            model.launch(t, sender, receiver, size, live)
        diag = tr.diagnose(t, 0)
        assert tr.unacked_updates == diag.unacked_updates == model.unacked()
        assert tr.undeliverable_updates == model.parked_updates() + model.unacked()
        assert tr.black_holed_links() == model.black_holed_links()
        assert diag.abandoned_updates == model.parked_updates()
        assert tr.parked_batches == len(model.parked)


def message_batch(rng, receiver):
    return MessageBatch(
        sender_peer=0,
        receiver_peer=receiver,
        updates=[
            PagerankUpdate(i, 9, value=rng.uniform(-2, 2), version=0)
            for i in range(rng.randint(1, 6))
        ],
    )


@pytest.mark.parametrize("seed", range(50))
def test_flight_tracker_counts_match_dict_model(seed):
    rng = random.Random(seed)
    config = draw_config(rng)
    pass_time = rng.choice([0.5, 1.0, 3.0])
    tracker = FlightTracker(config, pass_time=pass_time)
    flights = {}  # fid -> [receiver, size, mass, attempts, next_retry]
    spent = {}  # receiver -> [(size, mass), ...]
    now = 0.0
    for _ in range(80):
        op = rng.random()
        if op < 0.35:
            batch = message_batch(rng, rng.randrange(PEERS))
            flight = tracker.launch(batch, now)
            flights[flight.flight_id] = [
                batch.receiver_peer, len(batch), sum(abs(u.value) for u in batch),
                1, now + config.retry_delay(1) * pass_time,
            ]
        elif op < 0.45 and flights:
            fid = rng.choice(sorted(flights))
            assert tracker.on_ack(BatchAck(fid, 1, 0))
            del flights[fid]
        elif op < 0.55:
            receiver = rng.randrange(PEERS)
            forgiven = sum(size for size, _ in spent.pop(receiver, ()))
            assert tracker.forgive(receiver) == forgiven
        elif op < 0.6:
            lost = sum(r[1] for r in flights.values())
            lost += sum(size for rows in spent.values() for size, _ in rows)
            assert tracker.wipe() == lost
            flights.clear()
            spent.clear()
        else:
            now += rng.uniform(0.0, 4.0) * pass_time
            retried = []
            for fid in sorted(f for f, r in flights.items() if r[4] <= now):
                receiver, size, mass, attempts, _ = flights[fid]
                if attempts > config.max_retries:
                    spent.setdefault(receiver, []).append((size, mass))
                    del flights[fid]
                else:
                    flights[fid][3] += 1
                    flights[fid][4] = now + config.retry_delay(attempts + 1) * pass_time
                    retried.append(fid)
            assert [f.flight_id for f in tracker.due(now)] == retried
        abandoned = sum(size for rows in spent.values() for size, _ in rows)
        unacked = sum(r[1] for r in flights.values())
        assert tracker.abandoned_updates == abandoned
        assert tracker.abandoned_mass == pytest.approx(
            sum(mass for rows in spent.values() for _, mass in rows)
        )
        assert tracker.unacked_updates == unacked
        assert tracker.undeliverable_updates == abandoned + unacked
        assert tracker.unacked_flights == len(flights)
