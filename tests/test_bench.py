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
