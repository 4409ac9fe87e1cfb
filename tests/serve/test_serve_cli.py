"""Tests of the ``repro serve`` CLI (docs/SERVING.md)."""

import json

import pytest

from repro.cli import main

ARGS = [
    "serve", "--docs", "120", "--peers", "8", "--qps", "20",
    "--duration", "4", "--seed", "0",
]


class TestServeCli:
    def test_exit_zero_and_table_output(self, capsys):
        assert main(ARGS) == 0
        out = capsys.readouterr().out
        assert "Query-serving run" in out
        assert "achieved QPS" in out
        assert "INVARIANT VIOLATION" not in out

    def test_json_output_shape(self, capsys):
        assert main(ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["offered"] == payload["completed"] + payload["dropped"]
        assert payload["violations"] == []
        assert payload["converged"] is True
        assert len(payload["digest"]) == 64

    def test_json_deterministic_across_runs(self, capsys):
        main(ARGS + ["--format", "json"])
        first = json.loads(capsys.readouterr().out)
        main(ARGS + ["--format", "json"])
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_verify_ranks_passes(self, capsys):
        assert main(ARGS + ["--verify-ranks", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranks_identical"] is True

    def test_cache_zero_disables(self, capsys):
        assert main(ARGS + ["--cache", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_hits"] == 0

    def test_bad_loop_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(ARGS + ["--loop", "sideways"])
        assert exc.value.code == 2
