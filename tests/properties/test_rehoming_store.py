"""Property sweep: the §3.1 store under re-homing keeps the per-edge rule.

docs/PROTOCOL.md §6 specifies the store as the newest value per
(source, target): an edge owes at most one update, and a resend carries
its source's current publish from the source's current owner to the
target's.  Re-homing moves documents between the pass an edge starts
owing and the pass it is resent, so a resend must follow both
documents: no resent row goes from a peer to itself (a moved document
that joins its source's owner reads the published value and owes
nothing), and none carries a version below its source's current one.
Every run still converges close to the all-up ranks.

Twenty seeds of 300-585 documents on 10-12 peers, under
``FixedFractionChurn`` at 40-75 % availability with ``rehoming_after``
from 1 to 3, all picked by the seed.  With ``rehoming_after=1`` an
absent peer's documents move in the first pass it misses, so nothing
is ever stored and those runs check convergence alone.
"""

import numpy as np
import pytest

from repro.core import ChaoticPagerank
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, FixedFractionChurn, P2PNetwork
from repro.simulation import P2PPagerankSimulation

SEEDS = range(20)
EPSILON = 1e-4
#: Largest relative distance from the all-up run's ranks.
TOLERANCE = 2e-3


def recorded_resends(sim):
    """Record every row step 1 resends, as ``(sender, receiver,
    version, current version of its source)`` columns."""
    rows = []
    resend, deliver = sim._resend, sim._deliver_copies
    resending = []

    def take(live):
        resending.append(True)
        try:
            return resend(live)
        finally:
            resending.pop()

    def copies(batches):
        if resending:
            updates = batches.updates
            rows.append((
                np.repeat(batches.senders, batches.sizes),
                np.repeat(batches.receivers, batches.sizes),
                updates.version.copy(),
                sim.version[updates.source],
            ))
        return deliver(batches)

    sim._resend, sim._deliver_copies = take, copies
    return rows


@pytest.mark.parametrize("seed", SEEDS)
def test_rehoming_resends_follow_the_edge(seed):
    docs = 300 + 15 * seed
    peers = 10 + seed // 3 % 3
    fraction = (0.4, 0.5, 0.6, 0.75)[seed % 4]
    graph = broder_graph(docs, seed=seed)
    placement = DocumentPlacement.random(docs, peers, seed=seed + 1)
    sim = P2PPagerankSimulation(
        graph, P2PNetwork(peers, placement), epsilon=EPSILON,
        rehoming_after=1 + seed % 3,
    )
    rows = recorded_resends(sim)
    report = sim.run(
        availability=FixedFractionChurn(peers, fraction, seed=seed + 2),
        max_passes=5000,
    )
    sender, receiver, version, current = (np.concatenate(c) for c in zip(*rows))
    assert not np.any(sender == receiver), "a peer resent to itself"
    assert not np.any(version < current), "a resend carried a stale version"

    assert report.converged
    all_up = ChaoticPagerank(
        graph, placement.assignment, num_peers=peers, epsilon=EPSILON
    ).run(keep_history=False).ranks
    assert np.max(np.abs(report.ranks - all_up) / all_up) < TOLERANCE
