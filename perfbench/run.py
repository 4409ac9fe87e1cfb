"""Layer-by-layer pagerank benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sim-100k --seed 7 --seconds 30 --trace 0

Each iteration runs in a fresh process (``perfbench/iteration.py``)
with one BLAS thread and no network sockets; iterations repeat, with
the same seed, until another would overrun ``--seconds`` (at least two
run).  Protocol numbers and rank digests must repeat exactly across
iterations.  Times are scaled to a quiet host's speed by the
host-speed probe (``perfbench/probe.py``), and each is the median over
the run's iterations.  The last stdout line is one JSON object: with
``--trace 0`` the end-to-end metrics of the untraced iterations, with
``--trace 1`` the per-layer metrics of traced iterations, which
alternate with untraced ones so ``trace.overhead`` compares the two.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Every iteration, and the run as a whole, ends within this many seconds.
HARD_LIMIT_S = 165.0
MIN_ITERATIONS = 2
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: End-to-end metrics, in BENCHMARK.json order, with units.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passes", "count"),
    ("update_msgs", "count"),
    ("wire_bytes", "B"),
    ("rank_err_p99", "ratio"),
    ("ok_frac", "ratio"),
)
#: Fields every iteration of one seed must reproduce exactly (the
#: latencies are serve-5k's, on the virtual clock).
DETERMINISTIC = (
    "passes", "update_msgs", "wire_bytes", "rank_err_p99", "digest",
    "latency_p50_ms", "latency_p999_ms",
)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_iteration(args, index: int, traced: bool, timeout: float) -> dict:
    """One iteration in a fresh interpreter; its JSON result, or
    ``{"error": ...}``."""
    cmd = [
        sys.executable, os.path.join(HERE, "iteration.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
    ]
    if args.tiny:
        cmd.append("--tiny")
    if traced:
        cmd += ["--spans-out", os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}-{index}.jsonl"
        )]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=_child_env()
        )
    except subprocess.TimeoutExpired:
        return {"error": f"iteration {index} exceeded {timeout:.0f}s"}
    if proc.returncode != 0:
        return {"error": f"iteration {index} exited {proc.returncode}: {proc.stderr[-1500:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"iteration {index} printed no result"}


def run_iterations(args) -> List[Tuple[bool, dict]]:
    """Repeat iterations until another would overrun ``--seconds``;
    traced runs alternate untraced and traced iterations."""
    start = time.perf_counter()
    results: List[Tuple[bool, dict]] = []
    while True:
        elapsed = time.perf_counter() - start
        n = len(results)
        if n:
            per_iteration = elapsed / n
            if n >= MIN_ITERATIONS and elapsed + per_iteration > args.seconds:
                break
            if elapsed + per_iteration > HARD_LIMIT_S:
                break
        traced = bool(args.trace) and n % 2 == 1
        result = run_iteration(args, n, traced, max(1.0, HARD_LIMIT_S - elapsed))
        results.append((traced, result))
        print(_describe(n, traced, result), flush=True)
        if "error" in result:
            break
    return results


def _describe(index: int, traced: bool, r: dict) -> str:
    if "error" in r:
        return f"iteration {index}: ERROR {r['error']}"
    return (
        f"iteration {index}{' traced' if traced else ''}: "
        f"setup {statistics.median(r['setup_s']):.3f}s run {r['run_s']:.3f}s "
        f"(wall {r['run_wall_s']:.3f}s, host pace {r['pace']:.3f}: "
        f"python {r['python_pace']:.3f}, numpy {r['numpy_pace']:.3f}) "
        f"passes {r['passes']} updates {r['update_msgs']} "
        f"bytes {r['wire_bytes']} rank_err_p99 {r['rank_err_p99']:.3g} "
        f"failed {r['failed']}/{r['attempted']}"
        + (
            f" latency p50 {r['latency_p50_ms']:.3f}ms p99.9 {r['latency_p999_ms']:.1f}ms"
            if "latency_p50_ms" in r else ""
        )
    )


def aggregate(results: List[Tuple[bool, dict]]):
    """(correct, attempted, failed, failure messages, ok results)."""
    failures: List[str] = []
    attempted = failed = 0
    ok: List[Tuple[bool, dict]] = []
    first = None
    for i, (traced, r) in enumerate(results):
        if "error" in r:
            failures.append(r["error"])
            attempted += 1
            failed += 1
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        failures += [f"iteration {i}: {f}" for f in r["failures"]]
        if first is None:
            first = r
        else:
            diff = [k for k in DETERMINISTIC if r.get(k) != first.get(k)]
            if diff:
                failures.append(f"iteration {i}: {', '.join(diff)} differ from iteration 0")
                failed += r["attempted"] - r["failed"]
        ok.append((traced, r))
    correct = not failures and failed == 0 and bool(ok)
    return correct, attempted, failed, failures, ok


def median_of(iterations: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in iterations)


def end_to_end(untraced: List[dict], attempted: int, failed: int) -> Dict[str, float]:
    first = untraced[0]
    return {
        "setup_s": statistics.median(s for r in untraced for s in r["setup_s"]),
        "run_s": median_of(untraced, "run_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "passes": first["passes"],
        "update_msgs": first["update_msgs"],
        "wire_bytes": first["wire_bytes"],
        "rank_err_p99": first["rank_err_p99"],
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Tuple[Dict[str, float], List[str]]:
    from layers import PER_LAYER
    from tracing import layer_table

    from_untraced = {
        "host.pace": median_of(untraced, "pace"),
        "host.run_wall_s": median_of(untraced, "run_wall_s"),
        "trace.overhead": median_of(traced, "run_s") / median_of(untraced, "run_s"),
    }
    metrics = {
        n: statistics.median(r["layers"][n] for r in traced)
        for n, _ in PER_LAYER
        if n not in from_untraced
    }
    metrics.update(from_untraced)
    # Table of the median traced iteration (by run time).
    mid = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
    lines = ["layers ranked by self time (median traced iteration):"]
    # Spans are wall times, so their shares are of the wall time.
    lines += layer_table(mid["spans"], mid["run_wall_s"] + sum(mid["setup_wall_s"]))
    lines.append(
        f"self time left in the outermost 'run' span: "
        f"{mid['layers']['trace.unattributed_s']:.4f}s; "
        f"trace.overhead {metrics['trace.overhead']:.3f}"
    )
    return metrics, lines


def host_facts() -> Dict[str, object]:
    """Host facts recorded with each run, so host drift shows apart
    from code changes."""
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy as np
    from repro.bench import calibrate

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), ""
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibrate_s": round(calibrate(), 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke size (seconds instead of minutes); for tests",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2

    results = run_iterations(args)
    correct, attempted, failed, failures, ok = aggregate(results)
    for line in failures:
        print(f"CHECK FAILED: {line}")
    untraced = [r for traced, r in ok if not traced]
    traced = [r for traced, r in ok if traced]
    if not untraced or (args.trace and not traced):
        print("perfbench: no iteration completed; nothing to report", file=sys.stderr)
        return 1
    print("host: " + json.dumps(host_facts()))
    if args.trace:
        values, lines = per_layer(traced, untraced)
        print("\n".join(lines))
        from layers import PER_LAYER

        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
    else:
        values = end_to_end(untraced, attempted, failed)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
