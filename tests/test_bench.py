"""Tests of the ``repro bench`` harness (:mod:`repro.bench`).

The smoke matrix runs in a few seconds.  Only the deterministic columns
are checked against the committed ``BENCH_pagerank.json``; wall-times
depend on the host, so the comparison's regressions are not asserted.
"""

import json
from pathlib import Path

import pytest

from repro.bench import calibrate, compare_results, default_matrix, run_bench

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_pagerank.json"


@pytest.fixture(scope="module")
def smoke_payload():
    return run_bench(smoke=True)


def test_smoke_rows_match_committed_protocol_numbers(smoke_payload):
    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
    comparison = compare_results(smoke_payload, committed)
    assert comparison.checked == len(default_matrix(smoke=True)) == 9
    assert comparison.mismatches == []


def test_smoke_payload_shape(smoke_payload):
    names = [row["name"] for row in smoke_payload["scenarios"]]
    assert names == [s.name for s in default_matrix(smoke=True)]
    assert "parallel_vs_serial" in smoke_payload
    assert "async_vs_pass" in smoke_payload
    serve = [row for row in smoke_payload["scenarios"] if row["engine"] == "serve"]
    assert serve and "qps_achieved" in serve[0]


def test_calibrate_returns_positive_seconds():
    seconds = calibrate()
    assert isinstance(seconds, float)
    assert seconds > 0


def test_compare_fails_on_a_row_without_a_baseline(smoke_payload, monkeypatch, tmp_path, capsys):
    import argparse

    from repro import bench

    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
    # Doctor the committed file: one row now records another seed, and
    # every wall time is generous so only the skipped row can fail.
    for row in committed["scenarios"]:
        row["wall_s"] = 1e6
        if row["name"] == "sim_1k_loss20_churn":
            row["seed"] = 8
    comparison = compare_results(smoke_payload, committed)
    assert comparison.checked == 8
    assert comparison.mismatches == [] and comparison.regressions == []
    assert comparison.skipped == [
        "sim_1k_loss20_churn: parameters differ (seed)"
    ]
    assert not comparison.ok

    path = tmp_path / "BENCH_pagerank.json"
    path.write_text(json.dumps(committed), encoding="utf-8")
    monkeypatch.setattr(bench, "run_bench", lambda **kw: smoke_payload)
    args = argparse.Namespace(smoke=True, out=str(path), compare=True, threshold=0.25)
    assert bench.main(args) == 1
    out = capsys.readouterr().out
    assert "SKIPPED: sim_1k_loss20_churn: parameters differ" in out
    assert "no regressions" not in out

    # A committed file that shares no row checks nothing, and fails too.
    empty = compare_results(smoke_payload, {"scenarios": []})
    assert empty.checked == 0 and len(empty.skipped) == 9
    assert empty.skipped[0] == "engine_1k_stable: no committed row"
    assert not empty.ok
