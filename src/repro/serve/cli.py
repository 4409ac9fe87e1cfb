"""``repro serve`` — the query-serving entry point (docs/SERVING.md).

Runs one seeded :class:`~repro.serve.service.ServeSession`: the
deterministic asyncio peer runtime converging pagerank in the
background while the §2.4.3 incremental search path answers a
generated query load, and prints the serving report (achieved QPS,
latency percentiles, shed rate, cache hit rate).

Kept separate from :mod:`repro.cli` so the top-level CLI stays a thin
dispatcher; that module calls :func:`configure_parser` to mount the
arguments and :func:`run` to execute.

The command doubles as the CI smoke probe (``make serve-smoke``): it
verifies the report invariants (query conservation, no silent drops,
bounded queues) and, with ``--verify-ranks``, replays the identical
scenario *without* serving and requires the final rank vectors to be
byte-identical — serving must be read-only towards the computation.

Exit codes: 0 = clean, 1 = invariant or determinism violation,
2 = bad invocation.
"""

from __future__ import annotations

import argparse
import asyncio
import json

__all__ = ["configure_parser", "run"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Mount ``repro serve``'s arguments onto ``parser``."""
    parser.add_argument("--docs", type=int, default=400,
                        help="number of documents in the corpus")
    parser.add_argument("--peers", type=int, default=16,
                        help="number of peers (index + compute)")
    parser.add_argument("--qps", type=float, default=50.0,
                        help="offered queries per clock unit (open loop)")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="load window in virtual-clock units")
    parser.add_argument("--loop", choices=("open", "closed"), default="open",
                        help="arrival discipline (docs/SERVING.md)")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop client count")
    parser.add_argument("--cache", type=float, default=5.0,
                        help="result-cache TTL in clock units (0 disables)")
    parser.add_argument("--top-x", type=float, default=0.2, dest="top_x",
                        help="top-x%% forwarding fraction in (0, 1]")
    parser.add_argument("--staleness", type=float, default=0.05,
                        help="rank-drift bound ε that forces an index "
                        "refresh + cache invalidation")
    parser.add_argument("--queue-capacity", type=int, default=8,
                        help="admission bound per entry peer")
    parser.add_argument("--seed", type=int, default=0,
                        help="session seed (corpus, load, runtime)")
    parser.add_argument("--verify-ranks", action="store_true",
                        help="replay the scenario without serving and "
                        "require byte-identical final ranks")
    parser.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="output format (default: table)")


def run(args: argparse.Namespace) -> int:
    """Execute ``repro serve`` and return the process exit code."""
    from repro.analysis import format_table
    from repro.serve.service import ServeConfig, ServeSession

    config = ServeConfig(
        docs=args.docs,
        peers=args.peers,
        seed=args.seed,
        qps=args.qps,
        duration=args.duration,
        loop=args.loop,
        clients=args.clients,
        cache_ttl=args.cache,
        staleness_epsilon=args.staleness,
        fraction=args.top_x,
        queue_capacity=args.queue_capacity,
    )
    session = ServeSession(config)
    report = session.run()
    problems = report.verify_invariants(config)

    ranks_identical = None
    if args.verify_ranks:
        control = ServeSession(config)
        control_report = asyncio.run(control.runtime.run())
        ranks_identical = bool(
            report.runtime.ranks.tobytes() == control_report.ranks.tobytes()
        )
        if not ranks_identical:
            problems.append(
                "serving perturbed the computation: final ranks differ "
                "from the no-serving control run"
            )

    if args.format == "json":
        payload = {
            "offered": report.offered,
            "completed": report.completed,
            "cache_hits": report.cache_hits,
            "shed": report.shed,
            "retries": report.retries,
            "dropped": report.dropped,
            "qps_achieved": report.qps_achieved,
            "latency_p50": report.latency_p50,
            "latency_p99": report.latency_p99,
            "shed_rate": report.shed_rate,
            "cache_hit_rate": report.cache_hit_rate,
            "rank_refreshes": report.rank_refreshes,
            "peak_queue_depth": report.peak_queue_depth,
            "digest": report.digest,
            "converged": report.runtime.converged,
            "ranks_identical": ranks_identical,
            "violations": problems,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            ("documents", config.docs),
            ("peers", config.peers),
            ("loop", config.loop),
            ("offered queries", report.offered),
            ("completed", report.completed),
            ("cache hits", report.cache_hits),
            ("shed offers", report.shed),
            ("retries", report.retries),
            ("dropped", report.dropped),
            ("achieved QPS", f"{report.qps_achieved:.2f}"),
            ("latency p50", f"{report.latency_p50:.4f}"),
            ("latency p99", f"{report.latency_p99:.4f}"),
            ("shed rate", f"{report.shed_rate:.3f}"),
            ("cache hit rate", f"{report.cache_hit_rate:.3f}"),
            ("rank refreshes", report.rank_refreshes),
            ("index update messages", report.index_update_messages),
            ("peak queue depth", report.peak_queue_depth),
            ("pagerank converged", str(report.runtime.converged)),
            ("digest", report.digest[:16]),
        ]
        if ranks_identical is not None:
            rows.append(("ranks identical to control", str(ranks_identical)))
        print(format_table(["metric", "value"], rows, title="Query-serving run"))
        for p in problems:
            print(f"INVARIANT VIOLATION: {p}")
    return 1 if problems else 0
