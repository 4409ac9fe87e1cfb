"""Golden-file regression: the committed paper tables must regenerate
byte-identically.

``benchmarks/results/table_1_convergence.txt``, ``table_2_quality.txt``
and ``table_3_traffic.txt`` are produced by the benchmark harness at its
default scale (sizes ``(10_000, 30_000)``, 500 peers, seed 0 — see
``benchmarks/conftest.py``).  Since every engine in this reproduction
is deterministic, regenerating them with the same parameters must
reproduce the committed bytes exactly; any drift means an algorithmic
change leaked into the protocol, not just a refactor.

When a change is *intentional*, regenerate via
``python -m pytest benchmarks/test_table1_convergence.py
benchmarks/test_table2_quality.py benchmarks/test_table3_traffic.py``
and commit the updated files.

``report_tiny.txt`` next to this file pins :func:`generate_report` at a
tiny scale; regenerate it with
``PYTHONPATH=src python tests/regression/test_golden_tables.py``.
"""

from pathlib import Path

import pytest

from repro.analysis import PAPER_THRESHOLDS, generate_report, table1, table2, table3
from repro.search import CorpusConfig

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
REPORT_TINY = Path(__file__).resolve().parent / "report_tiny.txt"
GOLDEN_SIZES = (10_000, 30_000)
GOLDEN_PEERS = 500
GOLDEN_SEED = 0


def _assert_matches_golden(rendered: str, filename: str, root=RESULTS) -> None:
    golden_path = root / filename
    assert golden_path.exists(), f"missing golden file {golden_path}"
    golden = golden_path.read_text()
    regenerated = rendered + "\n"
    if regenerated != golden:
        import difflib

        diff = "\n".join(
            difflib.unified_diff(
                golden.splitlines(),
                regenerated.splitlines(),
                fromfile=f"committed {filename}",
                tofile="regenerated",
                lineterm="",
            )
        )
        pytest.fail(
            f"{filename} drifted from its committed golden:\n{diff}"
        )


def test_table1_convergence_golden():
    rendered = table1(
        GOLDEN_SIZES, num_peers=GOLDEN_PEERS, seed=GOLDEN_SEED, epsilon=1e-3
    ).render()
    _assert_matches_golden(rendered, "table_1_convergence.txt")


def test_table2_quality_golden():
    rendered = table2(
        GOLDEN_SIZES,
        thresholds=PAPER_THRESHOLDS,
        num_peers=GOLDEN_PEERS,
        seed=GOLDEN_SEED,
    ).render()
    _assert_matches_golden(rendered, "table_2_quality.txt")


def test_table3_traffic_golden():
    rendered = table3(
        GOLDEN_SIZES,
        thresholds=PAPER_THRESHOLDS,
        num_peers=GOLDEN_PEERS,
        seed=GOLDEN_SEED,
    ).render()
    _assert_matches_golden(rendered, "table_3_traffic.txt")


def _tiny_report() -> str:
    """The report at the scale of ``test_generate_report_tiny``."""
    cfg = CorpusConfig(
        num_documents=400, vocab_size=150, num_stopwords=20,
        raw_vocab_size=1_000, mean_terms_per_doc=120.0,
    )
    return generate_report(
        sizes=(300,), num_peers=10, insert_samples=5, seed=0,
        corpus_config=cfg, progress=lambda _: None,
    )


def test_generate_report_tiny_golden():
    # generate_report ends its text with a newline; the helper adds one.
    _assert_matches_golden(
        _tiny_report()[:-1], REPORT_TINY.name, root=REPORT_TINY.parent
    )


if __name__ == "__main__":
    REPORT_TINY.write_text(_tiny_report())
    print(f"wrote {REPORT_TINY}")
