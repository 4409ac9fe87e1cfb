#!/usr/bin/env python
"""Pass engines vs the asynchronous runtime — and two protocol hazards.

The library runs the distributed pagerank at three fidelity levels:

* the vectorized pass engine (the paper's §4.2 methodology);
* the protocol-level pass simulator (explicit peers + message objects,
  bit-identical to the vectorized engine);
* the concurrent peer runtime (one asyncio task per peer, real
  latencies, per-arrival processing — the paper's §6 "future work"
  deployment model), here in its seeded virtual-clock mode.

This script runs all three on one graph and then demonstrates the two
protocol hazards asynchronous execution surfaced during this
reproduction (both documented in DESIGN.md):

1. without receiver-side batching (``batch_window``), the literal
   recompute-on-arrival rule of Figure 1 sends noticeably more
   messages and recomputes far more often;
2. without per-source versioning, latency reordering can leave peers
   permanently stale.

Run:  python examples/async_vs_pass_simulation.py
"""

import asyncio

import numpy as np

from _scale import scaled
from repro.analysis import format_table
from repro.core import ChaoticPagerank, pagerank_reference
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import AsyncPeerRuntime, ExponentialLatency
from repro.simulation import P2PPagerankSimulation


def main() -> None:
    num_docs, num_peers, eps = scaled(400, floor=100), 10, 1e-4
    graph = broder_graph(num_docs, seed=0)
    placement = DocumentPlacement.random(num_docs, num_peers, seed=1)
    reference = pagerank_reference(graph).ranks

    def quality(ranks):
        rel = np.abs(ranks - reference) / reference
        return float(np.percentile(rel, 99))

    def run_async(epsilon, seed, **kwargs):
        runtime = AsyncPeerRuntime(
            graph,
            P2PNetwork(num_peers, placement, build_ring=False),
            epsilon=epsilon,
            latency=ExponentialLatency(1.0),
            seed=seed,
            **kwargs,
        )
        return asyncio.run(runtime.run())

    print(f"{num_docs} documents, {num_peers} peers, eps={eps:g}\n")

    vec = ChaoticPagerank(
        graph, placement.assignment, num_peers=num_peers, epsilon=eps
    ).run()
    obj = P2PPagerankSimulation(
        graph, P2PNetwork(num_peers, placement, build_ring=False), epsilon=eps
    ).run()
    evt = run_async(eps, seed=2)

    rows = [
        ("vectorized pass engine", vec.passes, vec.total_messages, f"{quality(vec.ranks):.2e}"),
        ("protocol pass simulator", obj.passes, obj.total_messages, f"{quality(obj.ranks):.2e}"),
        ("async peer runtime", "-", evt.messages, f"{quality(evt.ranks):.2e}"),
    ]
    print(format_table(
        ["Engine", "passes", "messages", "p99 err vs R_c"],
        rows,
        title="Same algorithm, three fidelity levels",
    ))
    print(f"\npass engines bit-identical: "
          f"{np.array_equal(vec.ranks, obj.ranks)}")

    # ---- hazard 1: recompute on every arrival ------------------------
    print("\nHazard 1 — traffic without receiver batching:")
    rows = []
    for window, label in [(0.5, "batched (window=0.5)"), (0.0, "paper-literal (window=0)")]:
        r = run_async(1e-3, seed=3, batch_window=window)
        rows.append((label, r.messages, r.recomputes,
                     "yes" if r.quiesced else "budget hit"))
    print(format_table(
        ["Mode", "messages", "recomputes", "quiesced"], rows,
    ))

    # ---- hazard 2: reordering without versions -----------------------
    print("\nHazard 2 — update versioning (always on in this library):")
    print("  update messages carry per-source sequence numbers; receivers")
    print("  drop reordered stale values.  Without this, exponential")
    print("  latencies left documents up to ~40% stale in our tests.")


if __name__ == "__main__":
    main()
