"""Command-line interface: ``python -m repro <command>``.

Fourteen commands cover the library's main entry points without
writing any Python:

``pagerank``
    Run the distributed computation on a synthetic §4.1 graph and
    report convergence, traffic, and quality vs the reference.
``table``
    Regenerate one of the paper's evaluation tables (1-6).
``report``
    Regenerate every table (plus the §4.3 trajectory) in one run.
``figure2``
    Execute the paper's Figure 2 worked example.
``search``
    Run the Table 6 search-traffic experiment at custom scale.
``faults``
    Run the fault-injection sweep: convergence under message loss
    (plus duplication, delay, and two mid-run peer crashes) at several
    loss rates, scored against the centralized reference — see
    docs/PROTOCOL.md §13 for the reliability layer it exercises.
``runtime``
    Run the concurrent asyncio peer runtime (per-peer tasks, mailboxes,
    reliable batches over a pluggable transport) on a synthetic graph —
    deterministic virtual-clock mode by default, ``--realtime`` for
    free-running mode, ``--tcp`` for loopback sockets — see
    docs/PROTOCOL.md §14 and docs/ARCHITECTURE.md.
``parallel``
    Run the multi-process sharded engine: peers partitioned into
    shards, worker OS processes over a shared-memory CSR arena, with
    cross-shard exchange priced like the paper's 24-byte updates —
    results are bit-identical at any worker count for a fixed shard
    count — see docs/PERFORMANCE.md ("Sharded execution model").
``soak``
    Run the chaos soak harness: randomized seeded crash/partition
    schedules against the recovery-supervised runtime with continuous
    invariant checks (mass conservation, no abandoned documents,
    convergence to the reference ranking); ``--report`` streams a
    JSONL incident report — see docs/PROTOCOL.md §15.
``serve``
    Run the query-serving layer: a seeded load generator drives the
    §2.4.3 incremental search path (admission control, result cache,
    DHT-routed term lookups) over the live deterministic runtime
    while pagerank converges in the background — see docs/SERVING.md.
    ``--verify-ranks`` proves serving is read-only (byte-identical
    ranks vs a no-serving control run).
``obs report``
    Run a small fully instrumented simulation (both engines, with
    churn and routed delivery) and dump the metrics snapshot as a
    table or JSON — see docs/OBSERVABILITY.md for the metric
    catalogue.  ``--trace`` additionally captures a JSON-lines event
    trace.
``bench``
    Run the pinned performance benchmark matrix (both engines, loss
    and churn variants) and write ``BENCH_pagerank.json``; with
    ``--compare``, regression-check against the committed file
    instead — see docs/PERFORMANCE.md.
``lint``
    Run the repository's AST-based invariant checkers (determinism,
    protocol/doc lockstep, metric catalogue, API surface, float
    safety) — see docs/STATIC_ANALYSIS.md for the rule catalogue.
    Exit code 1 when findings survive suppressions and the baseline.
``sanitize``
    Run the dynamic concurrency sanitizer: a happens-before race
    detector over the async runtime's tracked shared state plus a
    seeded interleaving explorer that asserts bitwise-identical
    durable state across perturbed schedules — see
    docs/STATIC_ANALYSIS.md ("Dynamic sanitizer").  Exit code 1 when
    races or schedule divergences are found.

All commands accept ``--seed`` and print plain-text tables; exit code
0 on success.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed PageRank for P2P Systems (HPDC 2003) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pagerank", help="run distributed pagerank on a synthetic graph")
    p.add_argument("--docs", type=int, default=10_000, help="number of documents")
    p.add_argument("--peers", type=int, default=500, help="number of peers")
    p.add_argument("--epsilon", type=float, default=1e-4, help="convergence threshold")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--availability", type=float, default=1.0,
                   help="fraction of peers present per pass (Table 1 churn)")
    p.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("table", help="regenerate a paper table")
    t.add_argument("number", type=int, choices=range(1, 7), help="table number (1-6)")
    t.add_argument("--sizes", type=int, nargs="+", default=None,
                   help="graph sizes (default: scaled; REPRO_FULL_SCALE honoured)")
    t.add_argument("--peers", type=int, default=500)
    t.add_argument("--samples", type=int, default=200,
                   help="insert samples for table 4")
    t.add_argument("--seed", type=int, default=0)

    sub.add_parser("figure2", help="run the paper's Figure 2 example")

    r = sub.add_parser("report", help="regenerate every paper table in one run")
    r.add_argument("--sizes", type=int, nargs="+", default=None)
    r.add_argument("--peers", type=int, default=500)
    r.add_argument("--samples", type=int, default=200)
    r.add_argument("--out", type=str, default=None, help="also write to this file")
    r.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("search", help="run the incremental-search experiment")
    s.add_argument("--docs", type=int, default=11_000)
    s.add_argument("--peers", type=int, default=50)
    s.add_argument("--queries", type=int, default=20, help="queries per arity")
    s.add_argument("--seed", type=int, default=0)

    f = sub.add_parser(
        "faults",
        help="run the convergence-under-faults sweep (loss/dup/delay/crashes)",
    )
    f.add_argument("--docs", type=int, default=200, help="number of documents")
    f.add_argument("--peers", type=int, default=16, help="number of peers")
    f.add_argument("--epsilon", type=float, default=1e-3)
    f.add_argument(
        "--loss-rates", type=float, nargs="+", default=[0.0, 0.01, 0.05, 0.20],
        help="message-loss rates, one table row each",
    )
    f.add_argument("--duplicate-rate", type=float, default=0.02)
    f.add_argument("--delay-rate", type=float, default=0.05)
    f.add_argument("--max-passes", type=int, default=2_000)
    f.add_argument("--seed", type=int, default=0)

    rt = sub.add_parser(
        "runtime",
        help="run the concurrent asyncio peer runtime (docs/PROTOCOL.md §14)",
    )
    rt.add_argument("--docs", type=int, default=1_000, help="number of documents")
    rt.add_argument("--peers", type=int, default=32, help="number of peers")
    rt.add_argument("--epsilon", type=float, default=1e-4,
                    help="convergence threshold")
    rt.add_argument("--damping", type=float, default=0.85)
    rt.add_argument("--loss", type=float, default=0.0,
                    help="message drop rate injected by the fault plan")
    rt.add_argument("--churn", action="store_true",
                    help="run peers through on/off availability spells (§3.1)")
    rt.add_argument("--realtime", action="store_true",
                    help="free-running real-clock mode instead of the "
                    "deterministic virtual-clock scheduler")
    rt.add_argument("--tcp", action="store_true",
                    help="exchange envelopes over loopback TCP sockets "
                    "(implies --realtime)")
    rt.add_argument("--timeout", type=float, default=60.0,
                    help="realtime-mode wall-clock budget in seconds")
    rt.add_argument("--seed", type=int, default=0)

    par = sub.add_parser(
        "parallel",
        help="run the multi-process sharded engine "
        "(docs/PERFORMANCE.md, sharded execution model)",
    )
    par.add_argument("--docs", type=int, default=10_000, help="number of documents")
    par.add_argument("--peers", type=int, default=100, help="number of peers")
    par.add_argument("--workers", type=int, default=2,
                     help="worker OS processes (capped at the shard count)")
    par.add_argument("--shards", type=int, default=None,
                     help="peer partition granularity (default: worker count); "
                     "results are keyed on shards, never on workers")
    par.add_argument("--backend", choices=["auto", "in-process", "process"],
                     default="auto",
                     help="execution backend (auto: process when workers > 1)")
    par.add_argument("--epsilon", type=float, default=1e-4,
                     help="convergence threshold")
    par.add_argument("--damping", type=float, default=0.85)
    par.add_argument("--availability", type=float, default=1.0,
                     help="fraction of peers present per pass (1.0 = no churn)")
    par.add_argument("--loss", type=float, default=0.0,
                     help="cross-peer message drop rate (per-shard seeded streams)")
    par.add_argument("--seed", type=int, default=0)

    soak = sub.add_parser(
        "soak",
        help="run the chaos soak harness: seeded crash storms with "
        "invariant checks (docs/PROTOCOL.md §15)",
    )
    soak.add_argument("--docs", type=int, default=120, help="number of documents")
    soak.add_argument("--peers", type=int, default=6, help="number of peers")
    soak.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                      help="soak schedule seeds, one run each")
    soak.add_argument("--epsilon", type=float, default=1e-4,
                      help="convergence threshold")
    soak.add_argument("--drop", type=float, default=0.05,
                      help="background message drop rate")
    soak.add_argument("--crashes", type=int, default=2,
                      help="crash events drawn per schedule")
    soak.add_argument("--partitions", type=int, default=0,
                      help="transient link partitions drawn per schedule")
    soak.add_argument("--down-passes", type=int, default=5,
                      help="upper bound on a crash's down spell, in passes")
    soak.add_argument("--max-rounds", type=int, default=20_000,
                      help="scheduler round budget per run")
    soak.add_argument("--report", type=str, default=None,
                      help="write the JSONL incident report to this file")

    o = sub.add_parser("obs", help="observability tooling (metrics + traces)")
    osub = o.add_subparsers(dest="obs_command", required=True)
    orep = osub.add_parser(
        "report",
        help="run a small instrumented simulation and print the metrics snapshot",
    )
    orep.add_argument("--docs", type=int, default=2_000,
                      help="documents for the vectorized-engine run")
    orep.add_argument("--sim-docs", type=int, default=300,
                      help="documents for the protocol-level simulator run")
    orep.add_argument("--peers", type=int, default=50)
    orep.add_argument("--sim-peers", type=int, default=16)
    orep.add_argument("--epsilon", type=float, default=1e-3)
    orep.add_argument("--availability", type=float, default=0.75,
                      help="fraction of peers present per pass (1.0 = no churn)")
    orep.add_argument("--seed", type=int, default=0)
    orep.add_argument("--json", action="store_true",
                      help="emit the snapshot as JSON instead of a table")
    orep.add_argument("--trace", type=str, default=None,
                      help="also write a JSON-lines event trace to this file")

    serve = sub.add_parser(
        "serve",
        help="run the query-serving layer over a live runtime (docs/SERVING.md)",
    )
    from repro.serve.cli import configure_parser as _configure_serve_parser

    _configure_serve_parser(serve)

    bench = sub.add_parser(
        "bench",
        help="run the pinned performance benchmark matrix (docs/PERFORMANCE.md)",
    )
    from repro.bench import configure_parser as _configure_bench_parser

    _configure_bench_parser(bench)

    lint = sub.add_parser(
        "lint",
        help="run the repo's static invariant checkers (docs/STATIC_ANALYSIS.md)",
    )
    from repro.lint.cli import configure_parser as _configure_lint_parser

    _configure_lint_parser(lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="run the dynamic concurrency sanitizer: happens-before "
        "race detection + schedule-perturbation determinism check",
    )
    from repro.sanitize.cli import configure_parser as _configure_sanitize_parser

    _configure_sanitize_parser(sanitize)
    return parser


def _cmd_pagerank(args) -> int:
    from repro.analysis import error_distribution, format_table
    from repro.core import pagerank_reference
    from repro.scenario import Scenario, build

    built = build(Scenario.from_args(args))
    report = built.solve()
    reference = pagerank_reference(built.graph, damping=args.damping)
    dist = error_distribution(report.ranks, reference.ranks)
    print(
        format_table(
            ["metric", "value"],
            [
                ("documents", args.docs),
                ("peers", args.peers),
                ("epsilon", args.epsilon),
                ("availability", args.availability),
                ("converged", str(report.converged)),
                ("passes", report.passes),
                ("update messages", report.total_messages),
                ("messages/document", report.messages_per_document),
                ("p99 error vs R_c", dist.percentile_errors[99.0]),
                ("max error vs R_c", dist.max_error),
            ],
            title="Distributed pagerank run",
        )
    )
    return 0


def _cmd_parallel(args) -> int:
    from repro.analysis import error_distribution, format_table
    from repro.core import pagerank_reference
    from repro.scenario import Scenario, build

    built = build(
        Scenario.from_args(args, engine="parallel"),
        workers=args.workers, shards=args.shards, backend=args.backend,
    )
    engine = built.engine
    report = built.solve()
    reference = pagerank_reference(built.graph, damping=args.damping)
    dist = error_distribution(report.ranks, reference.ranks)
    exchange = engine.last_exchange
    print(
        format_table(
            ["metric", "value"],
            [
                ("documents", args.docs),
                ("peers", args.peers),
                ("workers", engine.workers),
                ("shards", engine.shards),
                ("backend", engine.backend),
                ("epsilon", args.epsilon),
                ("availability", args.availability),
                ("loss rate", args.loss),
                ("converged", str(report.converged)),
                ("passes", report.passes),
                ("update messages", report.total_messages),
                ("cross-shard messages", exchange.messages),
                ("cross-shard bytes", exchange.bytes_on_wire),
                ("cross-shard hops", exchange.hops),
                ("worker utilization", round(engine.last_utilization, 4)),
                ("p99 error vs R_c", dist.percentile_errors[99.0]),
                ("max error vs R_c", dist.max_error),
            ],
            title="Sharded parallel pagerank run",
        )
    )
    return 0


def _cmd_table(args) -> int:
    from repro.analysis import table1, table2, table3, table4, table5, table6

    if args.number == 1:
        print(table1(args.sizes, num_peers=args.peers, seed=args.seed).render())
    elif args.number == 2:
        print(table2(args.sizes, num_peers=args.peers, seed=args.seed).render())
    elif args.number == 3:
        print(table3(args.sizes, num_peers=args.peers, seed=args.seed).render())
    elif args.number == 4:
        print(table4(args.sizes, samples=args.samples, seed=args.seed).render())
    elif args.number == 5:
        t1 = table1(args.sizes, num_peers=args.peers, seed=args.seed)
        t2 = table2(
            args.sizes, thresholds=(0.2, 1e-3, 1e-4), num_peers=args.peers,
            seed=args.seed,
        )
        t3 = table3(
            args.sizes, thresholds=(0.2, 1e-3, 1e-4), num_peers=args.peers,
            seed=args.seed,
        )
        t4 = table4(
            args.sizes, thresholds=(0.2, 1e-2, 1e-4), samples=args.samples,
            seed=args.seed,
        )
        print(table5(t1, t2, t3, t4).render())
    elif args.number == 6:
        print(table6(seed=args.seed).render())
    return 0


def _cmd_figure2(args) -> int:
    from repro.analysis import format_table
    from repro.core import propagate_increment
    from repro.graphs import figure2_graph

    graph, idx = figure2_graph()
    names = {v: k for k, v in idx.items()}
    result = propagate_increment(graph, idx["G"], 1.0, damping=1.0, epsilon=0.01)
    rows = [
        (names[i], result.rank_delta[i])
        for i in range(graph.num_nodes)
        if result.rank_delta[i]
    ]
    print(
        format_table(
            ["document", "increment"],
            rows,
            title="Figure 2: insert increment propagation (d=1, eps=0.01)",
        )
    )
    print(
        f"path length={result.path_length} coverage={result.node_coverage} "
        f"messages={result.messages}"
    )
    return 0


def _cmd_report(args) -> int:
    from repro.analysis import generate_report

    text = generate_report(
        sizes=args.sizes,
        num_peers=args.peers,
        insert_samples=args.samples,
        seed=args.seed,
        out_path=args.out,
    )
    print(text)
    return 0


def _cmd_search(args) -> int:
    from repro.analysis import table6
    from repro.search import CorpusConfig

    cfg = CorpusConfig(num_documents=args.docs)
    result = table6(
        corpus_config=cfg,
        num_peers=args.peers,
        queries_per_arity=args.queries,
        seed=args.seed,
    )
    print(result.render())
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import FaultExperimentConfig, run_fault_experiment

    config = FaultExperimentConfig(
        num_documents=args.docs,
        num_peers=args.peers,
        epsilon=args.epsilon,
        loss_rates=tuple(args.loss_rates),
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        max_passes=args.max_passes,
        seed=args.seed,
    )
    result = run_fault_experiment(config)
    print(result.render())
    failed = [t for t in result.trials if not t.converged]
    if failed:
        rates = ", ".join(f"{t.loss_rate:.0%}" for t in failed)
        print(f"\nWARNING: no convergence at loss rate(s) {rates}")
    return 0


def _cmd_runtime(args) -> int:
    import asyncio

    from repro.analysis import error_distribution, format_table
    from repro.core import pagerank_reference
    from repro.runtime import FixedLatency, TcpTransport
    from repro.scenario import Scenario, build

    realtime = args.realtime or args.tcp
    kwargs = {}
    if args.tcp:
        if args.loss or args.churn:
            print("error: --tcp carries no fault plan; drop --loss/--churn")
            return 2
        kwargs["transport"] = TcpTransport()
    elif realtime:
        # Millisecond-scale virtual units so a real-clock run is not
        # paced at one second per hop.
        kwargs.update(latency=FixedLatency(0.005), pass_time=0.01)
    built = build(Scenario.from_args(args, engine="runtime"), **kwargs)
    if realtime:
        report = asyncio.run(built.engine.run_realtime(timeout=args.timeout))
    else:
        report = built.solve()
    reference = pagerank_reference(built.graph, damping=args.damping)
    dist = error_distribution(report.ranks, reference.ranks)
    mode = "tcp" if args.tcp else ("realtime" if realtime else "deterministic")
    print(
        format_table(
            ["metric", "value"],
            [
                ("documents", args.docs),
                ("peers", args.peers),
                ("mode", mode),
                ("epsilon", args.epsilon),
                ("converged", str(report.converged)),
                ("quiesced", str(report.quiesced)),
                ("clock at quiescence", f"{report.clock_time:.3f}"),
                ("scheduler rounds", report.rounds),
                ("update messages", report.messages),
                ("batches", report.batches),
                ("acks", report.acks),
                ("retries", report.retries),
                ("abandoned updates", report.abandoned_updates),
                ("deferred deliveries", report.deferred_deliveries),
                ("max staleness", f"{report.max_staleness:.2e}"),
                ("p99 error vs R_c", dist.percentile_errors[99.0]),
                ("max error vs R_c", dist.max_error),
            ],
            title="Concurrent peer runtime run",
        )
    )
    return 0 if report.converged else 1


def _cmd_soak(args) -> int:
    from contextlib import ExitStack

    from repro import obs
    from repro.analysis import format_table
    from repro.recovery import SoakConfig, run_soak

    config = SoakConfig(
        docs=args.docs,
        peers=args.peers,
        epsilon=args.epsilon,
        drop_rate=args.drop,
        crashes=args.crashes,
        partitions=args.partitions,
        down_passes_max=args.down_passes,
        max_rounds=args.max_rounds,
    )
    rows = []
    failures = 0
    with ExitStack() as stack:
        sink = None
        if args.report:
            sink = stack.enter_context(obs.TraceSink(args.report))
        for seed in args.seeds:
            report = run_soak(config, seed=seed, trace=sink)
            failures += 0 if report.ok else 1
            rows.append(
                (
                    seed,
                    "ok" if report.ok else "FAIL",
                    report.rounds,
                    report.crashes,
                    report.restarts,
                    report.p99_error,
                    report.mass_error,
                    len(report.violations),
                )
            )
            for violation in report.violations:
                print(
                    f"seed {seed}: {violation.kind} @ round "
                    f"{violation.round}: {violation.detail}",
                    file=sys.stderr,
                )
    print(
        format_table(
            ["seed", "status", "rounds", "crashes", "restarts",
             "p99 err", "mass err", "violations"],
            rows,
            title=(
                f"repro soak — {config.docs} docs / {config.peers} peers, "
                f"drop={config.drop_rate}, {config.crashes} crashes, "
                f"{config.partitions} partitions"
            ),
        )
    )
    if args.report:
        print(f"incident report written to {args.report}")
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    from repro.serve.cli import run as run_serve_command

    return run_serve_command(args)


def _cmd_obs(args) -> int:
    import dataclasses
    from contextlib import ExitStack

    from repro import obs
    from repro.p2p.cache import LocationCache
    from repro.scenario import Scenario, build
    from repro.simulation import (
        RATE_32KBPS,
        TransferModel,
        pass_time_parallel,
        total_time_serialized,
    )

    with ExitStack() as stack:
        reg = stack.enter_context(obs.use_registry())
        sink = obs.get_trace_sink()
        if args.trace:
            sink = stack.enter_context(obs.TraceSink(args.trace))
            stack.enter_context(obs.use_trace_sink(sink))

        # Vectorized engine (core.* metrics, churn model metrics).
        scenario = Scenario.from_args(args)
        built = build(scenario)
        graph, network = built.graph, built.network
        network.cross_peer_edge_count(graph)
        report = built.solve()

        # Protocol-level simulator on a smaller graph (sim.* metrics,
        # chord routing metrics via the routed delivery policy).
        sim = build(dataclasses.replace(
            scenario, engine="simulator", docs=args.sim_docs, peers=args.sim_peers,
            delivery="routed", graph_offset=3, placement_offset=4, churn_offset=5,
        ))
        sim.solve(max_passes=2_000)
        sim_net = sim.network

        # Eq. 4 modeled execution time for the vectorized run (both the
        # serialised Table 3 reading and the peer-parallel per-pass one).
        model = TransferModel(rate_bytes_per_s=RATE_32KBPS)
        total_time_serialized(
            report.total_messages, model, passes=report.passes
        )
        pass_time_parallel(network.peer_link_matrix(graph), model)

        # One DHT membership change, so ring-maintenance metrics appear
        # in the report too (join + leave restores the original ring).
        sim_net.ring.join(args.sim_peers)
        sim_net.ring.leave(args.sim_peers)

        # §3.2 location caching: a miss, a hit, and an invalidation so
        # every p2p.location_cache.* counter appears in the snapshot.
        loc_cache = LocationCache(0, sim_net.ring)
        loc_cache.locate(0)
        loc_cache.locate(0)
        loc_cache.invalidate(0)
        snapshot = reg.snapshot()

    if args.json:
        print(obs.snapshot_to_json(snapshot))
    else:
        print(obs.render_snapshot(snapshot, title="repro obs report"))
        layers = sorted({obs.layer_of(name) for name in snapshot})
        print(
            f"\n{len(snapshot)} metrics across layers: {', '.join(layers)} "
            f"(catalogue: docs/OBSERVABILITY.md)"
        )
        if args.trace:
            print(f"trace written to {args.trace}")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import main as run_bench_cli

    return run_bench_cli(args)


def _cmd_lint(args) -> int:
    from repro.lint.cli import run as run_lint

    return run_lint(args)


def _cmd_sanitize(args) -> int:
    from repro.sanitize.cli import run as run_sanitize

    return run_sanitize(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "pagerank": _cmd_pagerank,
        "parallel": _cmd_parallel,
        "table": _cmd_table,
        "figure2": _cmd_figure2,
        "report": _cmd_report,
        "search": _cmd_search,
        "faults": _cmd_faults,
        "runtime": _cmd_runtime,
        "soak": _cmd_soak,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "sanitize": _cmd_sanitize,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
