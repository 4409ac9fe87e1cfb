"""``repro sanitize`` — the dynamic-sanitizer entry point.

Runs one packaged scenario (a synthetic §4.1 graph under the
deterministic asyncio runtime) with both dynamic checks armed: the
happens-before race detector journals every tracked shared-state
access (``SAN001``), and the interleaving explorer replays the same
scenario under K perturbed same-time tie-breaks and compares durable
state bitwise (``SAN002``) — see docs/STATIC_ANALYSIS.md "Dynamic
sanitizer" for the model.

Kept separate from :mod:`repro.cli` so the top-level CLI stays a thin
dispatcher; that module calls :func:`configure_parser` to mount the
arguments and :func:`run` to execute.  Output is plain text or the
versioned findings JSON of :mod:`repro.lint.findings` — the same
document ``repro lint`` emits, so CI can merge both streams.

Exit codes: 0 = clean, 1 = findings, 2 = bad invocation.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.lint.findings import Finding, findings_to_json, sort_findings
from repro.sanitize.explorer import ExplorationReport, explore_schedules
from repro.sanitize.hb import RuntimeSanitizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runtime.runtime import AsyncPeerRuntime

__all__ = ["configure_parser", "run", "render_report"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Mount ``repro sanitize``'s arguments onto ``parser``."""
    parser.add_argument("--docs", type=int, default=200,
                        help="number of documents")
    parser.add_argument("--peers", type=int, default=8,
                        help="number of peers")
    parser.add_argument("--epsilon", type=float, default=1e-3,
                        help="convergence threshold")
    parser.add_argument("--damping", type=float, default=0.85)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="message drop rate injected by the fault plan")
    parser.add_argument("--churn", action="store_true",
                        help="run peers through on/off availability "
                        "spells (§3.1)")
    parser.add_argument("--schedules", type=int, default=3,
                        help="perturbed tie-break schedules to explore")
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario seed (also the first schedule seed)")
    parser.add_argument("--max-rounds", type=int, default=100_000,
                        help="scheduler round budget per run")
    parser.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="output format (default: table)")


def _make_factory(
    args: argparse.Namespace, captured: List["AsyncPeerRuntime"]
) -> Callable[[Optional[Callable[[int], int]]], "AsyncPeerRuntime"]:
    """A fresh-runtime factory for :func:`explore_schedules`.

    Every call rebuilds the identical scenario (same seeds) with a new
    armed sanitizer; built runtimes are appended to ``captured`` so the
    caller can harvest race findings after the runs.
    """

    def factory(tiebreak: Optional[Callable[[int], int]]) -> "AsyncPeerRuntime":
        from repro.scenario import Scenario, build

        scenario = Scenario.from_args(args, engine="runtime")
        runtime = build(scenario, sanitizer=RuntimeSanitizer(), tiebreak=tiebreak).engine
        captured.append(runtime)
        return runtime

    return factory


def _harvest_races(captured: List["AsyncPeerRuntime"]) -> List[Finding]:
    """Union of race findings across every executed runtime."""
    merged: Dict[Tuple[str, str, str], Finding] = {}
    for runtime in captured:
        assert runtime.sanitizer is not None
        for f in runtime.sanitizer.finalize():
            merged.setdefault((f.rule, f.path, f.message), f)
    return sort_findings(merged.values())


def render_report(
    findings: List[Finding], report: ExplorationReport, journal: int
) -> str:
    """Human-readable report: one finding per line plus a summary."""
    lines: List[str] = []
    for f in findings:
        lines.append(f"{f.path}:{f.line}: {f.rule} [{f.severity.value}] {f.message}")
        if f.hint:
            lines.append(f"    hint: {f.hint}")
    races = sum(1 for f in findings if f.rule == "SAN001")
    divergences = sum(1 for f in findings if f.rule == "SAN002")
    if report.digests_compared:
        divergence_part = (
            f"{divergences} diverging schedules of {report.schedules}"
        )
    else:
        divergence_part = (
            f"digest comparison skipped over {report.schedules} schedules"
            " (--loss couples the fault oracle to delivery order)"
        )
    lines.append(
        f"{journal} journaled accesses: {races} races, "
        f"{divergence_part} "
        f"(baseline digest {report.baseline_digest[:12]})"
    )
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    """Execute ``repro sanitize`` for parsed ``args``; returns exit code."""
    captured: List["AsyncPeerRuntime"] = []
    report = explore_schedules(
        _make_factory(args, captured),
        schedules=args.schedules,
        seed=args.seed,
        max_rounds=args.max_rounds,
        # A sequential FaultPlan stream maps drops onto whichever send
        # happens next, so perturbed schedules legitimately diverge;
        # SAN002 is only sound for loss-free scenarios (see
        # explore_schedules).  Races are still checked on every run.
        compare_digests=not args.loss,
    )
    findings = sort_findings(_harvest_races(captured) + list(report.findings))
    if args.format == "json":
        print(findings_to_json(findings))
    else:
        journal = sum(
            r.sanitizer.journal_length
            for r in captured
            if r.sanitizer is not None
        )
        print(render_report(findings, report, journal))
    return 1 if findings else 0
