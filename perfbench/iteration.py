"""One benchmark iteration, run by ``perfbench/run.py`` in a fresh process.

For each of the workload's instances it builds the inputs (``setup``),
collects garbage, times each solve (``run``) and checks the outputs;
then it prints one JSON line.  Every timed region is also scaled to a
quiet host's speed by the host-speed probe (``perfbench/probe.py``).
With ``--trace 1`` it first wraps each layer's entry points, records
spans in memory, and writes them to ``--spans-out`` at the end.

Network sockets are refused for the life of the process; the in-memory
transport needs none (asyncio's internal socketpair still works).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import socket
import statistics
import sys
from contextlib import contextmanager


def _refuse_network(*args, **kwargs):
    raise OSError("network sockets are disabled in benchmark iterations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    for name in ("connect", "connect_ex", "bind"):
        setattr(socket.socket, name, _refuse_network)

    import workloads as wl
    from probe import INTERVAL_S, Probe
    from tracing import Tracer, self_times

    tracer = counters = None
    span = wl._no_span
    if args.trace:
        from layers import install

        tracer = Tracer()
        counters = install(tracer)
        span = tracer.span

    import numpy as np

    wl.preload()
    spec = wl.WORKLOADS[args.workload]
    sizes = wl.sizes_for(args.workload, args.tiny)
    # A traced iteration samples the host's speed only around its timed
    # regions, so no sample lands inside a layer's span.
    probe = Probe(spec.sensitivity, interval_s=0.0 if args.trace else INTERVAL_S)
    # Set-up is repeated (and its median reported) where one set-up is
    # too short to time alone; a traced iteration sets up once so its
    # spans describe one set-up per instance.
    setups = 1 if args.trace else spec.setups
    setup_t, solve_t, rel_err, latency_ms, digests = [], [], [], [], []
    totals = dict(passes=0, update_msgs=0, wire_bytes=0, attempted=0, failed=0)
    failures = []
    finals = {}

    # Spans sit inside the probe's regions, so its edge samples fall
    # outside every span.
    @contextmanager
    def timed_solve():
        with probe.region(solve_t), span("run"):
            yield

    for j in range(spec.instances):
        seed = args.seed + wl.SEED_STRIDE * j
        inst = None
        for _ in range(setups):
            inst = None
            gc.collect()
            with probe.region(setup_t), span("setup"):
                inst = wl.build(args.workload, seed, sizes, span)
        gc.collect()
        reports = wl.solve(inst, timed_solve)
        outcome = wl.check(inst, reports, args.tiny)
        for key in totals:
            totals[key] += getattr(outcome, key)
        failures += outcome.failures
        rel_err.append(outcome.rel_err)
        latency_ms += [s * 1e3 for s in outcome.latency_s]
        digests.append(outcome.digest)
        if tracer is not None:
            from layers import final_state_counts, merge_counts

            merge_counts(finals, final_state_counts(inst, reports))
        del inst, reports
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = dict(
        totals,
        setup_s=[scaled for _, scaled in setup_t],
        run_s=sum(scaled for _, scaled in solve_t),
        setup_wall_s=[wall for wall, _ in setup_t],
        run_wall_s=sum(wall for wall, _ in solve_t),
        pace=statistics.fmean(sum(p) / 2 for p in probe.paces),
        python_pace=statistics.fmean(p for p, _ in probe.paces),
        numpy_pace=statistics.fmean(n for _, n in probe.paces),
        peak_rss_mb=peak_rss_mb,
        rank_err_p99=wl.p99(np.concatenate(rel_err)),
        digest="".join(d[:16] for d in digests),
        failures=failures,
    )
    if latency_ms:
        result["latency_p50_ms"] = float(np.percentile(latency_ms, 50))
        result["latency_p999_ms"] = float(np.percentile(latency_ms, 99.9))
    if tracer is not None:
        from layers import merge_counts, per_layer_metrics

        tracer.restore()
        merge_counts(finals, counters)
        result["layers"] = per_layer_metrics(tracer, finals, latency_ms)
        result["spans"] = self_times(tracer.spans)
        if args.spans_out:
            os.makedirs(os.path.dirname(args.spans_out) or ".", exist_ok=True)
            tracer.write(args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
