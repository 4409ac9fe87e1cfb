"""Which layer entry points the traced run wraps, and the per-layer
metrics derived from their spans and counts.

Only batch-level entry points are wrapped (a peer's whole compute pass,
a received batch, one kernel pull, one routed query), never per-update
ones such as ``Peer.receive``.  Counts come from wrapped calls'
arguments and return values, or from the final state of the objects
the workload built.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from tracing import Tracer

__all__ = ["PER_LAYER", "install", "final_state_counts", "merge_counts", "per_layer_metrics"]

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graphs.build_s", "s"),
    ("graphs.edges", "count"),
    ("p2p.place_s", "s"),
    ("peer.compute_pass_s", "s"),
    ("peer.compute_pass_calls", "count"),
    ("peer.active_docs", "count"),
    ("peer.receive_batch_s", "s"),
    ("peer.updates_in", "count"),
    ("peer.apply_ratio", "ratio"),
    ("messages.batches", "count"),
    ("messages.batch_mean", "count"),
    ("peer.recompute_s", "s"),
    ("peer.recomputes", "count"),
    ("peer.publish_ratio", "ratio"),
    ("churn.sample_s", "s"),
    ("churn.live_frac", "ratio"),
    ("routing.hops_s", "s"),
    ("routing.hops", "count"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("faults.tick_s", "s"),
    ("faults.send_s", "s"),
    ("faults.attempts", "count"),
    ("faults.drops", "count"),
    ("faults.retransmits", "count"),
    ("faults.parked_max", "count"),
    ("faults.abandoned", "count"),
    ("faults.delivered_ratio", "ratio"),
    ("core.run_s", "s"),
    ("core.self_s", "s"),
    ("core.static_s", "s"),
    ("core.churn_s", "s"),
    ("kernels.pull_s", "s"),
    ("kernels.pull_rows_s", "s"),
    ("kernels.pull_edges_s", "s"),
    ("kernels.rows", "count"),
    ("kernels.edges", "count"),
    ("kernels.bytes_computed", "B"),
    ("kernels.edges_per_s", "1/s"),
    ("runtime.run_s", "s"),
    ("runtime.self_s", "s"),
    ("runtime.rounds", "count"),
    ("mailbox.drain_s", "s"),
    ("mailbox.envelopes", "count"),
    ("transport.send_s", "s"),
    ("transport.deliver_s", "s"),
    ("transport.acks", "count"),
    ("reliability.flights", "count"),
    ("reliability.retransmits", "count"),
    ("index.refresh_s", "s"),
    ("index.refreshes", "count"),
    ("index.maintenance_msgs", "count"),
    ("serve.route_s", "s"),
    ("serve.routes", "count"),
    ("serve.dht_hops", "count"),
    ("serve.cache_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.admit_ratio", "ratio"),
    ("serve.retries", "count"),
    ("serve.queue_max", "count"),
    ("serve.hook_s", "s"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p999_ms", "ms"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
    ("host.pace", "ratio"),
    ("host.run_wall_s", "s"),
)

# Bytes each kernel touches per edge and per row, from its array sizes
# (8-byte indices and floats): ``pull`` reads index, weight, gathered
# value and row id and writes a contribution per edge; ``pull_rows``
# adds the expanded position; ``pull_edges`` reads value, weight and
# target and writes a contribution.  Per row: accumulator and output.
_KERNEL_BYTES = {"pull": (40, 24), "pull_rows": (48, 24), "pull_edges": (32, 24)}


def install(tracer: Tracer) -> Dict[str, float]:
    """Wrap every layer's entry points; returns the live counters the
    wrappers fill in."""
    from repro.core.distributed import ChaoticPagerank
    from repro.core.kernels import CSRWorkspace
    from repro.faults.transport import ReliableTransport
    from repro.p2p.churn import FixedFractionChurn
    from repro.p2p.messages import Outbox
    from repro.p2p.peer import Peer
    from repro.p2p.routing import DeliveryPolicy
    from repro.runtime.mailbox import Mailbox
    from repro.runtime.node import PeerNode
    from repro.runtime.runtime import AsyncPeerRuntime
    from repro.runtime.transport import InMemoryTransport
    from repro.search.index import DistributedIndex
    from repro.serve.cache import ResultCache
    from repro.serve import service
    from repro.serve.router import QueryRouter
    from repro.serve.service import ServeSession
    from repro.simulation.engine import P2PPagerankSimulation

    c: Dict[str, float] = defaultdict(float)

    def add(key, value):
        c[key] += value

    def on_compute(args, kwargs, outcome):
        add("peer.active_docs", outcome.active_documents)

    def on_receive(args, kwargs, applied):
        updates = args[1] if len(args) > 1 else kwargs["updates"]
        add("peer.updates_in", len(updates))
        add("peer.applied", applied)

    def on_batches(args, kwargs, batches):
        add("messages.batches", len(batches))
        add("messages.updates", sum(len(b) for b in batches))

    def on_sample(args, kwargs, mask):
        add("churn.samples", 1)
        add("churn.live", float(mask.mean()))

    def on_hops(args, kwargs, hops):
        add("routing.hops", hops)

    def on_tick(args, kwargs, _):
        transport = args[0]
        c["faults.parked_max"] = max(c["faults.parked_max"], transport.parked_batches)

    def on_send(args, kwargs, _):
        batch = args[2] if len(args) > 2 else kwargs["batch"]
        add("faults.sends", 1 if len(batch) else 0)

    def kernel(kind, rows_of):
        per_edge, per_row = _KERNEL_BYTES[kind]

        def on_pull(args, kwargs, out):
            ws = args[0]
            rows, edges = rows_of(ws, args, kwargs)
            add("kernels.rows", rows)
            add("kernels.edges", edges)
            add("kernels.bytes_computed", edges * per_edge + rows * per_row)

        return on_pull

    def rows_pull(ws, args, kwargs):
        return ws.num_nodes, ws.rindices.size

    def rows_selected(ws, args, kwargs):
        rows = args[3] if len(args) > 3 else kwargs["rows"]
        return rows.size, int((ws.rindptr[rows + 1] - ws.rindptr[rows]).sum())

    def rows_edges(ws, args, kwargs):
        return ws.num_nodes, ws.dst.size

    def on_drain(args, kwargs, envelopes):
        add("mailbox.envelopes", len(envelopes))

    def on_ack(args, kwargs, _):
        add("transport.acks", 1)

    def on_refresh(args, kwargs, messages):
        add("index.refreshes", 1)
        add("index.maintenance_msgs", messages)

    def on_route(args, kwargs, routed):
        add("serve.routes", 1)
        add("serve.dht_hops", routed.dht_hops)

    w = tracer.wrap
    # serve-5k's link graph comes with its synthetic corpus.
    w(service, "synthesize_corpus", "graphs.build")
    w(Peer, "compute_pass", "peer.compute_pass", on_compute)
    w(Peer, "receive_batch", "peer.receive_batch", on_receive)
    w(Outbox, "batches", "messages.batches", on_batches)
    w(PeerNode, "_run_worklist", "peer.recompute")
    w(FixedFractionChurn, "sample", "churn.sample", on_sample)
    w(DeliveryPolicy, "delivery_hops_batch", "routing.hops", on_hops)
    w(P2PPagerankSimulation, "run", "sim.run")
    w(ReliableTransport, "tick", "faults.tick", on_tick)
    w(ReliableTransport, "send", "faults.send", on_send)
    w(ChaoticPagerank, "_run_static", "core.static")
    w(ChaoticPagerank, "_run_churn", "core.churn")
    w(CSRWorkspace, "pull", "kernels.pull", kernel("pull", rows_pull))
    w(CSRWorkspace, "pull_rows", "kernels.pull_rows", kernel("pull_rows", rows_selected))
    w(CSRWorkspace, "pull_edges", "kernels.pull_edges", kernel("pull_edges", rows_edges))
    w(AsyncPeerRuntime, "run", "runtime.run")
    w(Mailbox, "drain", "mailbox.drain", on_drain)
    w(InMemoryTransport, "send_batch", "transport.send")
    w(InMemoryTransport, "send_ack", "transport.send", on_ack)
    w(InMemoryTransport, "deliver_due", "transport.deliver")
    w(DistributedIndex, "refresh_ranks", "index.refresh", on_refresh)
    w(QueryRouter, "route", "serve.route", on_route)
    w(ResultCache, "get", "serve.cache")
    w(ResultCache, "put", "serve.cache")
    w(ServeSession, "_round_hook", "serve.hook")
    return c


def final_state_counts(inst, reports) -> Dict[str, float]:
    """Counts read from the objects one instance built, after its run."""
    out: Dict[str, float] = {"graphs.edges": float(inst.graph.indices.size)}
    engine = inst.engine
    if inst.workload.startswith("sim-"):
        transport = engine.transport
        if transport is not None:
            stats = transport.stats
            out["faults.drops"] = stats.dropped_updates
            out["faults.retransmits"] = stats.retries
            out["faults.abandoned"] = stats.abandoned_updates
            out["faults.delivered_batches"] = engine.traffic.network_batches
    elif inst.workload == "serve-5k":
        rt = reports[0].runtime
        out["runtime.rounds"] = rt.rounds
        out["reliability.flights"] = rt.batches
        out["reliability.retransmits"] = rt.retries
        out["peer.recomputes"] = rt.recomputes
        out["peer.publishes"] = sum(
            sum(node.peer._publish_version.values()) for node in engine.runtime.nodes
        )
        stats = engine.cache.stats
        out["serve.cache_hits"] = stats.hits
        out["serve.cache_lookups"] = stats.hits + stats.misses
        adm = engine.admission.stats
        out["serve.admits"] = adm.admitted
        out["serve.offers"] = adm.admitted + adm.shed
        out["serve.retries"] = adm.retries
        out["serve.queue_max"] = adm.peak_depth
    return out


def merge_counts(into: Dict[str, float], counts: Dict[str, float]) -> None:
    """Fold one instance's counts into the iteration's: sums, except
    ``*_max`` counts, which keep the largest."""
    for key, value in counts.items():
        if key.endswith("_max"):
            into[key] = max(into.get(key, 0.0), value)
        else:
            into[key] = into.get(key, 0.0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, counters: Dict[str, float], latency_ms: List[float]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead`` (which
    needs the untraced runs) for one traced iteration.  ``counters``
    holds the wrappers' counts plus every instance's
    :func:`final_state_counts`; ``latency_ms`` the serve query
    latencies."""
    import numpy as np

    from tracing import self_times

    t = self_times(tracer.spans)

    def self_s(*names):
        return sum(t[n]["self_s"] for n in names if n in t)

    def total_s(*names):
        return sum(t[n]["total_s"] for n in names if n in t)

    def calls(name):
        return t[name]["calls"] if name in t else 0

    g = counters.get
    lat = np.asarray(latency_ms if latency_ms else [0.0])
    kernel_s = self_s("kernels.pull", "kernels.pull_rows", "kernels.pull_edges")
    attempts = g("faults.sends", 0.0) + g("faults.retransmits", 0.0)
    m = {
        "graphs.build_s": self_s("graphs.build"),
        "graphs.edges": g("graphs.edges", 0.0),
        "p2p.place_s": total_s("p2p.place"),
        "peer.compute_pass_s": self_s("peer.compute_pass"),
        "peer.compute_pass_calls": calls("peer.compute_pass"),
        "peer.active_docs": g("peer.active_docs", 0.0),
        "peer.receive_batch_s": self_s("peer.receive_batch"),
        "peer.updates_in": g("peer.updates_in", 0.0),
        "peer.apply_ratio": _ratio(g("peer.applied", 0.0), g("peer.updates_in", 0.0)),
        "messages.batches": g("messages.batches", 0.0),
        "messages.batch_mean": _ratio(g("messages.updates", 0.0), g("messages.batches", 0.0)),
        "peer.recompute_s": self_s("peer.recompute"),
        "peer.recomputes": g("peer.recomputes", 0.0),
        "peer.publish_ratio": _ratio(g("peer.publishes", 0.0), g("peer.recomputes", 0.0)),
        "churn.sample_s": self_s("churn.sample"),
        "churn.live_frac": _ratio(g("churn.live", 0.0), g("churn.samples", 0.0)),
        "routing.hops_s": self_s("routing.hops"),
        "routing.hops": g("routing.hops", 0.0),
        "sim.run_s": total_s("sim.run"),
        "sim.self_s": self_s("sim.run"),
        "faults.tick_s": self_s("faults.tick"),
        "faults.send_s": self_s("faults.send"),
        "faults.attempts": attempts,
        "faults.drops": g("faults.drops", 0.0),
        "faults.retransmits": g("faults.retransmits", 0.0),
        "faults.parked_max": g("faults.parked_max", 0.0),
        "faults.abandoned": g("faults.abandoned", 0.0),
        "faults.delivered_ratio": _ratio(g("faults.delivered_batches", 0.0), attempts),
        "core.run_s": total_s("core.static", "core.churn"),
        "core.self_s": self_s("core.static", "core.churn"),
        "core.static_s": total_s("core.static"),
        "core.churn_s": total_s("core.churn"),
        "kernels.pull_s": self_s("kernels.pull"),
        "kernels.pull_rows_s": self_s("kernels.pull_rows"),
        "kernels.pull_edges_s": self_s("kernels.pull_edges"),
        "kernels.rows": g("kernels.rows", 0.0),
        "kernels.edges": g("kernels.edges", 0.0),
        "kernels.bytes_computed": g("kernels.bytes_computed", 0.0),
        "kernels.edges_per_s": _ratio(g("kernels.edges", 0.0), kernel_s),
        "runtime.run_s": total_s("runtime.run"),
        "runtime.self_s": self_s("runtime.run"),
        "runtime.rounds": g("runtime.rounds", 0.0),
        "mailbox.drain_s": self_s("mailbox.drain"),
        "mailbox.envelopes": g("mailbox.envelopes", 0.0),
        "transport.send_s": self_s("transport.send"),
        "transport.deliver_s": self_s("transport.deliver"),
        "transport.acks": g("transport.acks", 0.0),
        "reliability.flights": g("reliability.flights", 0.0),
        "reliability.retransmits": g("reliability.retransmits", 0.0),
        "index.refresh_s": self_s("index.refresh"),
        "index.refreshes": g("index.refreshes", 0.0),
        "index.maintenance_msgs": g("index.maintenance_msgs", 0.0),
        "serve.route_s": self_s("serve.route"),
        "serve.routes": g("serve.routes", 0.0),
        "serve.dht_hops": g("serve.dht_hops", 0.0),
        "serve.cache_s": self_s("serve.cache"),
        "serve.cache_hit_ratio": _ratio(g("serve.cache_hits", 0.0), g("serve.cache_lookups", 0.0)),
        "serve.admit_ratio": _ratio(g("serve.admits", 0.0), g("serve.offers", 0.0)),
        "serve.retries": g("serve.retries", 0.0),
        "serve.queue_max": g("serve.queue_max", 0.0),
        "serve.hook_s": self_s("serve.hook"),
        "serve.latency_p50_ms": float(np.percentile(lat, 50)),
        "serve.latency_p999_ms": float(np.percentile(lat, 99.9)),
        "trace.unattributed_s": self_s("run"),
        "trace.spans": float(len(tracer.spans)),
    }
    return {k: float(v) for k, v in m.items()}
