"""One seeded §4.1–4.2 run: a :class:`Scenario` and its :func:`build`.

A run is a Broder power-law graph, documents placed uniformly at
random on peers, an availability model, a fault mix and an engine.
Every random input is drawn from ``seed`` plus one named offset per
stream; the defaults (graph +0, placement +1, churn +2, faults +3,
runtime +4) are the convention of ``repro bench`` and the CLI's seeded
commands.  docs/API.md ("Seed offsets") lists the callers that differ.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro.core import ChaoticPagerank
from repro.core.pagerank import DEFAULT_DAMPING
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import LinkGraph, broder_graph
from repro.p2p import FixedFractionChurn, P2PNetwork
from repro.p2p.routing import CachedDirectDelivery, RoutedDelivery
from repro.parallel import ParallelPagerank
from repro.runtime import AsyncPeerRuntime, OnOffSchedule
from repro.simulation import P2PPagerankSimulation

__all__ = ["CHURN_AVAILABILITY", "DELIVERY", "Scenario", "Built", "build"]

#: Availability of a churned run (the paper's 75 % column).
CHURN_AVAILABILITY = 0.75

#: The simulator's §3.2 delivery policies, by name.
DELIVERY = {"cached": CachedDirectDelivery, "routed": RoutedDelivery}

#: Mean down spell of the runtime's on/off churn, in clock units.
_MEAN_DOWN = 10.0

#: The fields that fix a build's graph and network.
_INPUTS = ("docs", "peers", "seed", "graph_offset", "placement_offset", "delivery")


@dataclass(frozen=True)
class Scenario:
    """One seeded run of the §4.2 set-up.

    ``engine`` is ``"vectorized"``, ``"parallel"``, ``"simulator"`` or
    ``"runtime"``.  ``availability`` is the fraction of peers present:
    below 1 the pass engines sample :class:`~repro.p2p.FixedFractionChurn`
    and the runtime runs on/off spells with that stationary fraction.
    ``delivery`` names a simulator delivery policy in :data:`DELIVERY`
    (it builds the Chord ring).  Each ``*_offset`` is added to ``seed``
    to seed its stream.
    """

    docs: int
    peers: int
    engine: str = "vectorized"
    epsilon: float = 1e-4
    damping: float = DEFAULT_DAMPING
    faults: Optional[FaultSpec] = None
    availability: float = 1.0
    delivery: Optional[str] = None
    seed: int = 0
    graph_offset: int = 0
    placement_offset: int = 1
    churn_offset: int = 2
    fault_offset: int = 3
    runtime_offset: int = 4

    def __post_init__(self) -> None:
        if self.engine not in ("vectorized", "parallel", "simulator", "runtime"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if not 0.0 < self.availability <= 1.0:
            raise ValueError(f"availability must be in (0, 1], got {self.availability}")
        if self.delivery is not None and (
            self.delivery not in DELIVERY or self.engine != "simulator"
        ):
            raise ValueError(f"no {self.delivery!r} delivery for the {self.engine}")

    @classmethod
    def from_args(cls, args, **fields) -> "Scenario":
        """The run a seeded CLI command's flags describe; ``--damping``,
        ``--loss``, ``--availability`` and ``--churn`` are optional."""
        loss = getattr(args, "loss", 0.0)
        availability = min(getattr(args, "availability", 1.0), 1.0)
        if getattr(args, "churn", False):
            availability = CHURN_AVAILABILITY
        return cls(
            args.docs, args.peers, epsilon=args.epsilon, seed=args.seed,
            damping=getattr(args, "damping", DEFAULT_DAMPING),
            faults=FaultSpec(drop_rate=loss) if loss else None,
            availability=availability, **fields,
        )


class Built(NamedTuple):
    """What :func:`build` made.  ``solve(**run_kwargs)`` runs the
    engine once; ``availability`` is its churn model (or ``None``)."""

    scenario: Scenario
    graph: LinkGraph
    network: P2PNetwork
    engine: object
    availability: object
    solve: Callable[..., object]


def build(
    scenario: Scenario, *, reuse: Optional[Built] = None, **engine_kwargs
) -> Built:
    """Build ``scenario``'s graph, network and engine.

    ``engine_kwargs`` go to the engine's constructor, over what the
    scenario sets (a TCP transport, a sanitizer, worker counts, ...).
    ``reuse`` takes the graph and network of an earlier build with the
    same :data:`_INPUTS`, so a sweep over fault mixes builds them once.
    """
    s = scenario
    if reuse is not None:
        if any(getattr(reuse.scenario, k) != getattr(s, k) for k in _INPUTS):
            raise ValueError("reuse needs a build of the same graph and placement")
        graph, network = reuse.graph, reuse.network
    else:
        graph = broder_graph(s.docs, seed=s.seed + s.graph_offset)
        network = P2PNetwork(s.peers, build_ring=s.delivery is not None)
        network.place_documents(s.docs, seed=s.seed + s.placement_offset)
    plan = None if s.faults is None else FaultPlan(s.faults, seed=s.seed + s.fault_offset)
    churn = None
    if s.availability < 1.0 and s.engine == "runtime":
        up = _MEAN_DOWN * s.availability / (1.0 - s.availability)
        churn = OnOffSchedule(
            s.peers, mean_up=up, mean_down=_MEAN_DOWN, seed=s.seed + s.churn_offset
        )
    elif s.availability < 1.0:
        churn = FixedFractionChurn(s.peers, s.availability, seed=s.seed + s.churn_offset)

    kwargs = dict(damping=s.damping, epsilon=s.epsilon)
    if s.engine == "runtime":
        kwargs.update(faults=plan, availability=churn, seed=s.seed + s.runtime_offset)
        engine = AsyncPeerRuntime(graph, network, **{**kwargs, **engine_kwargs})
        return Built(
            s, graph, network, engine, churn, lambda **kw: asyncio.run(engine.run(**kw))
        )
    kwargs.update(engine_kwargs)
    run = dict(availability=churn, keep_history=False)
    assignment = network.placement.assignment
    if s.engine == "vectorized":
        engine = ChaoticPagerank(graph, assignment, num_peers=s.peers, **kwargs)
        run["fault_plan"] = plan
    elif s.engine == "parallel":
        engine = ParallelPagerank(graph, assignment, num_peers=s.peers, **kwargs)
        run.update(fault_spec=s.faults, fault_seed=s.seed + s.fault_offset)
    else:
        policy = DELIVERY[s.delivery](network.ring) if s.delivery else None
        engine = P2PPagerankSimulation(
            graph, network, faults=plan, delivery_policy=policy, **kwargs
        )
    return Built(s, graph, network, engine, churn, lambda **kw: engine.run(**run, **kw))
