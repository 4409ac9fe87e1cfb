"""One-shot reproduction report: every paper table in one call.

``pytest benchmarks/ --benchmark-only`` is the full harness (it also
*asserts* the shape claims); this module is the lighter entry point for
users who just want the tables — the paper's full §4–§5 evaluation
(Table 1 through Table 6) rendered in one run:

>>> from repro.analysis.report import generate_report    # doctest: +SKIP
>>> text = generate_report()                             # doctest: +SKIP

or from the shell: ``python -m repro report``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.experiments import (
    reference_ranks,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.analysis.trajectory import convergence_trajectory, passes_to_quality
from repro.scenario import Scenario, build

__all__ = ["generate_report"]


def generate_report(
    *,
    sizes: Optional[Sequence[int]] = None,
    num_peers: int = 500,
    insert_samples: int = 200,
    seed: int = 0,
    corpus_config=None,
    out_path=None,
    progress=print,
) -> str:
    """Regenerate Tables 1-6 plus the §4.3 trajectory, as one document.

    Parameters
    ----------
    sizes:
        Graph sizes (default: the scaled sizes, or the paper's under
        ``REPRO_FULL_SCALE``).
    num_peers, insert_samples, seed:
        Experiment parameters (paper defaults where applicable).
    corpus_config:
        Optional :class:`~repro.search.corpus.CorpusConfig` for the
        Table 6 experiment (default: the paper-scale corpus).
    out_path:
        Optional file to write the report to.
    progress:
        Callable receiving one status line per section (silence with
        ``lambda _: None``).

    Returns
    -------
    str
        The rendered report.
    """
    sections = []

    progress("Table 1 (convergence) ...")
    t1 = table1(sizes, num_peers=num_peers, seed=seed)
    sections.append(t1.render())

    progress("Table 2 (quality) ...")
    t2 = table2(sizes, num_peers=num_peers, seed=seed)
    sections.append(t2.render())

    progress("Table 3 (traffic) ...")
    t3 = table3(sizes, num_peers=num_peers, seed=seed)
    sections.append(t3.render())

    progress("Table 4 (inserts) ...")
    t4 = table4(sizes, samples=insert_samples, seed=seed)
    sections.append(t4.render())

    progress("Table 5 (summary) ...")
    sections.append(table5(t1, t2, t3, t4).render())

    progress("Table 6 (search) ...")
    t6 = table6(seed=seed, corpus_config=corpus_config)
    sections.append(t6.render())

    progress("Convergence trajectory (section 4.3) ...")
    size = max(t1.sizes)
    built = build(Scenario(size, num_peers, seed=seed))
    traj = convergence_trajectory(
        built.graph, built.network.placement.assignment, num_peers=num_peers,
        epsilon=1e-4, reference=reference_ranks(built),
    )
    numbers = passes_to_quality(traj)
    sections.append(
        "Section 4.3 trajectory claims "
        f"({size} nodes): 99% of documents within 1% of R_c by pass "
        f"{numbers['99pct_within_1pct']}; within 0.1% by pass "
        f"{numbers['all_within_0.1pct']} (paper: <10 and ~30)."
    )

    report = "\n\n".join(sections) + "\n"
    if out_path is not None:
        Path(out_path).write_text(report)
        progress(f"wrote {out_path}")
    return report
