"""Property-style invariant sweeps (stdlib + pytest parametrize only).

Three families of algebraic invariants that must hold for *every*
seed, not just the golden ones:

* **mass conservation** — on a graph with no dangling nodes, one
  synchronous pull pass maps total rank ``S`` to ``(1-d)·N + d·S``;
  with ε = 0 the chaotic engine is exactly synchronous, so the
  recurrence must hold at every recorded pass (and every rank is
  bounded below by ``1-d``);
* **migration preserves state** — when §3.1 re-homing makes an absent
  peer surrender its documents to its ring successors, which adopt
  them, the (rank, published, version) of every document moves with it
  without perturbing a single bit, so the global rank multiset is
  unchanged by re-homing, and a simulator re-homing round trip leaves
  the network computing what it would have computed without it;
* **zero-rate fault plans draw no randomness** — a ``FaultPlan`` whose
  spec injects nothing must never advance its RNG, so adding an inert
  plan cannot perturb a seeded run.
"""

import numpy as np
import pytest

from repro.core import ChaoticPagerank
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import LinkGraph, broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.simulation import P2PPagerankSimulation

DAMPING = 0.85


def _no_dangling_graph(n: int, seed: int) -> LinkGraph:
    """Ring + seeded chords: every node has out-degree ≥ 1."""
    rng = np.random.default_rng(seed)
    ring_src = np.arange(n, dtype=np.int64)
    ring_dst = (ring_src + 1) % n
    chords = rng.integers(0, n, size=(2, 2 * n))
    src = np.concatenate([ring_src, chords[0]])
    dst = np.concatenate([ring_dst, chords[1]])
    keep = src != dst
    return LinkGraph.from_edges(
        np.stack([src[keep], dst[keep]], axis=1), num_nodes=n
    )


class TestMassConservation:
    @pytest.mark.parametrize("seed", range(10))
    def test_pass_recurrence(self, seed):
        """sum(rank after pass) == (1-d)·N + d·sum(rank before)."""
        n = 200
        graph = _no_dangling_graph(n, seed)
        sums = []
        # ε far below any representable relative change: every changed
        # document publishes, so last-sent always equals current rank
        # and the chaotic pass is exactly the synchronous operator.
        report = ChaoticPagerank(graph, epsilon=1e-15, damping=DAMPING).run(
            max_passes=40,
            on_pass=lambda t, ranks: sums.append(float(ranks.sum())),
        )
        assert len(sums) >= 2
        prev = float(n)  # initial rank 1.0 everywhere
        for current in sums:
            expected = (1.0 - DAMPING) * n + DAMPING * prev
            assert current == pytest.approx(expected, rel=1e-12)
            prev = current
        del report

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_floor(self, seed):
        """Every computed rank is at least the teleport mass 1-d."""
        graph = broder_graph(300, seed=seed)
        report = ChaoticPagerank(graph, epsilon=1e-4, damping=DAMPING).run(
            keep_history=False
        )
        assert float(report.ranks.min()) >= (1.0 - DAMPING) - 1e-12


class TestMigrationPreservesState:
    @staticmethod
    def _rank_multiset(sim):
        return sorted(zip(range(sim.graph.num_nodes), sim.rank.tolist(),
                          sim.published.tolist(), sim.version.tolist()))

    @pytest.mark.parametrize("seed", range(8))
    def test_surrender_adopt_roundtrip(self, seed):
        """Peer 0 is absent long enough to surrender its documents; its
        ring successors adopt them, and it takes them back on return."""
        sim = self._simulation(seed)
        before = self._rank_multiset(sim)
        docs = np.flatnonzero(sim._peer_of == 0)
        assert docs.size
        everyone = np.ones(sim.network.num_peers, dtype=bool)
        away = everyone.copy()
        away[0] = False
        sim._absence[0] = 1
        sim._rehome(away)
        assert self._rank_multiset(sim) == before, (
            "migration changed the global rank multiset"
        )
        assert np.all(sim._peer_of[docs] != 0)
        assert not np.any(sim._peer_of == 0)
        sim._absence[0] = 0
        sim._rehome(everyone)
        assert self._rank_multiset(sim) == before
        assert np.flatnonzero(sim._peer_of == 0).tolist() == docs.tolist()

    @staticmethod
    def _simulation(seed):
        n, num_peers = 240, 6
        graph = broder_graph(n, seed=seed)
        placement = DocumentPlacement.random(n, num_peers, seed=seed + 1)
        sim = P2PPagerankSimulation(
            graph, P2PNetwork(num_peers, placement), epsilon=1e-4, rehoming_after=1
        )
        sim.run(max_passes=3)  # non-trivial ranks, versions and knowledge
        return sim

    @pytest.mark.parametrize("seed", range(4))
    def test_migrated_docs_keep_computing_identically(self, seed):
        """After a simulator re-homing round trip — peer 0's documents
        evacuated to their ring successors with the in-link knowledge
        they were computed from, then brought home — the network sees
        and computes the same values it would have without the detour."""
        plain, detour = self._simulation(seed), self._simulation(seed)
        moving = np.count_nonzero(plain._peer_of == 0)
        everyone = np.ones(plain.network.num_peers, dtype=bool)
        away = everyone.copy()
        away[0] = False
        detour._absence[0] = 1
        detour._rehome(away)
        assert not np.any(detour._peer_of == 0)
        # Every owner, new or old, sees every source as before.
        assert np.array_equal(detour.view, plain.view)
        detour._absence[0] = 0
        detour._rehome(everyone)
        assert detour.traffic.migrations == 2 * moving > 0
        assert np.array_equal(detour._peer_of, plain._peer_of)
        assert np.array_equal(detour.view, plain.view)
        for sim in (plain, detour):
            sim.run(max_passes=3)
        assert np.array_equal(detour.ranks(), plain.ranks())


class TestInertFaultPlanDrawsNothing:
    @staticmethod
    def _rng_state(plan):
        return repr(plan._rng.bit_generator.state)

    def test_zero_rate_rolls_draw_nothing(self):
        plan = FaultPlan(FaultSpec(), seed=123)
        before = self._rng_state(plan)
        for pass_index in range(5):
            for sender in range(3):
                for receiver in range(3):
                    plan.roll_send(pass_index, sender, receiver)
            plan.roll_ack_drop(pass_index)
            plan.edge_delivery_mask(pass_index, 50)
            plan.crashes_at(pass_index)
            plan.partitions_active(pass_index)
        assert self._rng_state(plan) == before, (
            "an inert fault plan advanced its RNG"
        )

    def test_inert_plan_does_not_perturb_run(self):
        """A zero-rate plan leaves the simulator byte-identical to no
        plan at all (modulo transport accounting)."""
        from repro.p2p import P2PNetwork
        from repro.simulation import P2PPagerankSimulation

        n, num_peers = 200, 8
        graph = broder_graph(n, seed=3)
        placement = DocumentPlacement.random(n, num_peers, seed=4)

        net_a = P2PNetwork(num_peers, placement, build_ring=False)
        plain = P2PPagerankSimulation(graph, net_a, epsilon=1e-4).run(
            keep_history=False
        )
        net_b = P2PNetwork(num_peers, placement, build_ring=False)
        inert = P2PPagerankSimulation(
            graph, net_b, epsilon=1e-4, faults=FaultPlan(FaultSpec(), seed=9)
        ).run(keep_history=False)

        assert np.array_equal(plain.ranks, inert.ranks)
        assert plain.passes == inert.passes
