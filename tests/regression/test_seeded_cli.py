"""Regression pin: the stdout of small seeded CLI runs, byte for byte.

Every command here builds a §4.1–4.2 run from one ``--seed``: a Broder
graph, a random placement, and churn, loss and latency streams drawn
at fixed offsets from the seed.  The expected outputs live in
``tests/regression/seeded_cli/<case>.txt``; any drift means a command
drew one of its streams differently, not just faster.

Wall-clock values are filtered out first: the parallel run's
``worker utilization`` row and the timers of ``repro obs``.

When a change is *intentional*, regenerate the expected files with
``PYTHONPATH=src python tests/regression/test_seeded_cli.py`` and
review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main

EXPECTED = Path(__file__).resolve().parent / "seeded_cli"


def _drop_utilization(out):
    return "".join(
        line for line in out.splitlines(keepends=True)
        if not line.strip().startswith("worker utilization")
    )


def _drop_timers(out):
    snapshot = json.loads(out)
    kept = {k: v for k, v in snapshot.items() if v["type"] != "timer"}
    return json.dumps(kept, indent=2, sort_keys=True) + "\n"


def _same(out):
    return out


SMALL = ["--docs", "300", "--peers", "8", "--seed", "3"]

CASES = {
    "pagerank": (["pagerank", *SMALL], 0, _same),
    "pagerank_churn": (
        ["pagerank", *SMALL, "--availability", "0.75"], 0, _same
    ),
    "parallel": (
        ["parallel", *SMALL, "--backend", "in-process", "--workers", "1",
         "--shards", "2", "--loss", "0.1", "--availability", "0.75"],
        0,
        _drop_utilization,
    ),
    "runtime": (["runtime", *SMALL, "--loss", "0.1", "--churn"], 0, _same),
    "obs": (
        ["obs", "report", "--docs", "400", "--sim-docs", "150", "--peers",
         "10", "--sim-peers", "8", "--seed", "3", "--json"],
        0,
        _drop_timers,
    ),
    "sanitize_table": (
        ["sanitize", "--docs", "120", "--peers", "6", "--schedules", "2",
         "--seed", "3", "--churn"],
        0,
        _same,
    ),
    "sanitize_json": (
        ["sanitize", "--docs", "120", "--peers", "6", "--schedules", "2",
         "--seed", "3", "--churn", "--loss", "0.1", "--format", "json"],
        0,
        _same,
    ),
    "faults": (
        ["faults", "--docs", "150", "--peers", "8", "--loss-rates", "0",
         "0.2", "--seed", "3"],
        0,
        _same,
    ),
}


def _run(case):
    argv, code, keep = CASES[case]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == code
    return keep(buf.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_cli_output_is_pinned(case):
    expected = (EXPECTED / f"{case}.txt").read_text(encoding="utf-8")
    assert _run(case) == expected


if __name__ == "__main__":  # regenerate the expected files
    EXPECTED.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (EXPECTED / f"{name}.txt").write_text(_run(name), encoding="utf-8")
