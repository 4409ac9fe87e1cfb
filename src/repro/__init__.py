"""repro — Distributed PageRank for P2P Systems (HPDC 2003), reproduced.

A from-scratch implementation of the paper's full system:

* **Core algorithm** (:mod:`repro.core`): chaotic (asynchronous)
  iterative distributed pagerank with the stop-sending-below-ε rule,
  the synchronous reference solver, and incremental document
  insert/delete propagation.
* **Substrates** (:mod:`repro.graphs`, :mod:`repro.p2p`): power-law
  document link graphs (Broder model), a Chord-like DHT with GUIDs and
  finger routing, peer state machines, churn models with
  store-and-resend, and location caching.
* **Simulation** (:mod:`repro.simulation`): the §4.2 pass-based
  simulator on explicit peers and the Eq. 4 execution-time model.
* **Runtime** (:mod:`repro.runtime`): the protocol run truly
  asynchronously, one asyncio task per peer, with seeded latency,
  churn and receiver batching.
* **Search** (:mod:`repro.search`): the synthetic corpus, distributed
  inverted index with pagerank column, incremental top-x% search,
  Bloom-assisted intersection, and the FASD scoring variant.
* **Evaluation** (:mod:`repro.analysis`, :mod:`repro.crawler`): drivers
  regenerating every table of the paper and the §5 crawler comparison.

Quickstart
----------
>>> from repro.graphs import broder_graph
>>> from repro.core import ChaoticPagerank, pagerank_reference
>>> from repro.p2p import DocumentPlacement
>>> g = broder_graph(10_000, seed=0)
>>> placement = DocumentPlacement.random(g.num_nodes, 500, seed=1)
>>> report = ChaoticPagerank(g, placement.assignment, epsilon=1e-3).run()
>>> report.converged
True
"""

from repro.core import (
    ChaoticPagerank,
    PagerankResult,
    RunReport,
    distributed_pagerank,
    pagerank_reference,
    simulate_delete,
    simulate_insert,
)
from repro.graphs import LinkGraph, broder_graph
from repro.p2p import ChordRing, DocumentPlacement, FixedFractionChurn, P2PNetwork
from repro.search import (
    DistributedIndex,
    baseline_search,
    generate_queries,
    incremental_search,
    synthesize_corpus,
)
from repro.simulation import P2PPagerankSimulation

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "LinkGraph",
    "broder_graph",
    "pagerank_reference",
    "PagerankResult",
    "ChaoticPagerank",
    "distributed_pagerank",
    "RunReport",
    "simulate_insert",
    "simulate_delete",
    "DocumentPlacement",
    "P2PNetwork",
    "ChordRing",
    "FixedFractionChurn",
    "P2PPagerankSimulation",
    "synthesize_corpus",
    "DistributedIndex",
    "generate_queries",
    "baseline_search",
    "incremental_search",
]
