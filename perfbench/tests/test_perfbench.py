"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from probe import Probe  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, *, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
def _inputs(workload, seed):
    inst = wl.build(workload, seed, wl.sizes_for(workload, tiny=True))
    if workload == "serve-5k":
        arrivals = inst.engine.loadgen.open_arrivals(inst.config.qps, inst.config.duration)
        return [(a.time, a.query.terms, a.portal_peer) for a in arrivals]
    if workload == "vec-1m":
        assignment = inst.engine.assignment
    else:
        assignment = inst.engine.network.placement.assignment
    parts = [inst.graph.indptr, inst.graph.indices, assignment]
    if inst.availability is not None:
        parts += [inst.availability.sample(t) for t in range(5)]
    return parts


def _same(a, b):
    if isinstance(a, list) and a and isinstance(a[0], tuple):
        return a == b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_seed_gives_identical_inputs(workload):
    assert _same(_inputs(workload, 11), _inputs(workload, 11))
    assert not _same(_inputs(workload, 11), _inputs(workload, 12))


def test_metric_names_and_benchmark_json_agree():
    spec = _spec()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))


# ----------------------------------------------------------------------
def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds a.inner [2, 3]) and b [5, 6].
    tracer = Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("a.inner"):
                pass
        with tracer.span("b"):
            pass
    t = self_times(tracer.spans)
    assert t["outer"] == {"calls": 1, "total_s": 10, "self_s": 6}
    assert t["a"] == {"calls": 1, "total_s": 3, "self_s": 2}
    assert t["a.inner"]["self_s"] == 1
    assert t["b"]["self_s"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["x", 1.0, 5.0, 0],
        ["y", 3.0, 7.0, 0],   # overlaps x: union [1, 7]
        ["z", 9.0, 12.0, 0],  # runs past the parent: clipped to [9, 10]
        ["x", 20.0, 21.0, -1],
    ]
    t = self_times(spans)
    assert t["root"]["self_s"] == pytest.approx(10 - 6 - 1)
    assert t["x"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


def test_wrap_records_spans_and_restores():
    class Box:
        def work(self, n):
            return n * 2

    seen = []
    tracer = Tracer()
    tracer.wrap(Box, "work", "box.work", lambda a, k, r: seen.append(r))
    assert Box().work(4) == 8
    tracer.restore()
    assert Box().work(1) == 2
    assert [s[0] for s in tracer.spans] == ["box.work"]
    assert seen == [8]


def test_probe_scales_a_region_by_the_samples_taken_in_it():
    probe = Probe(sensitivity=1.0, interval_s=0.05)
    out = []
    with probe.region(out):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    ((wall, scaled),) = out
    assert len(probe.paces) >= 4  # both edges and the timer's samples
    assert 0 < wall < 0.3  # the samples taken inside are not counted
    slowdowns = [(python + numpy) / 2 for python, numpy in probe.paces]
    assert scaled == pytest.approx(wall * statistics.fmean(1 / s for s in slowdowns))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_smoke_prints_every_end_to_end_metric(workload):
    out = _result(_run(workload, 0))
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    names = [m["name"] for m in _spec()["end_to_end"]]
    assert sorted(out["metrics"]) == sorted(names)
    for name, metric in out["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("serve-5k", 1)
    out = _result(proc)
    assert out["correct"] is True
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(out["metrics"]) == sorted(names)
    assert "layers ranked by self time" in proc.stdout
    assert out["metrics"]["runtime.rounds"]["value"] > 0
    assert out["metrics"]["trace.overhead"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("sim-100k", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
