"""Float-safety rules (FLT*): no exact equality on convergence floats.

The convergence machinery is built on relative-change thresholds
(paper Figure 1's ε rule); an exact ``==``/``!=`` between floats in
those paths silently encodes "these two binary64 values are
bit-identical", which survives refactors only by luck — a fused
multiply-add, a different summation order, or a numpy upgrade changes
the low bits and flips the branch.  Three rules:

* FLT001 — ``==``/``!=`` against a float *literal* (``x == 0.0``,
  ``res != 1e-3``).  Exact-zero sentinels are occasionally legitimate
  (a rate of exactly 0.0 means "feature off"); suppress those with
  ``# repro: noqa[FLT001]`` and a comment saying why exactness is the
  point.
* FLT002 — ``==``/``!=`` where *every* operand is a float-flavored
  name (``residual``, ``epsilon``, ``rank`` …) inside the convergence-
  critical layers.  There is no legitimate reading of
  ``residual == epsilon``; the fix is a tolerance or an inequality.
* FLT003 — ``np.bincount`` with weights outside ``repro.core.kernels``:
  a second pull, summing in an order of its own.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, List, Optional

from repro.lint.base import Checker, FileContext, register
from repro.lint.checkers.determinism import _collect_import_aliases, _dotted
from repro.lint.findings import Finding, Rule

__all__ = ["FloatSafetyChecker"]

FLT001 = Rule(
    id="FLT001",
    name="float-literal-equality",
    summary="== / != comparison against a float literal",
    hint="compare with a tolerance (abs(x - c) <= tol) or an integer "
    "sentinel; noqa only where bit-exactness is the point",
)
FLT002 = Rule(
    id="FLT002",
    name="float-name-equality",
    summary="== / != between float-valued convergence quantities "
    "(residual, epsilon, rank, ...)",
    hint="use an inequality or a tolerance-based check "
    "(math.isclose / abs diff)",
)
FLT003 = Rule(
    id="FLT003",
    name="weighted-bincount-outside-kernels",
    summary="np.bincount with weights outside repro.core.kernels "
    "(a second pull implementation)",
    hint="pull through CSRWorkspace or sum with repro.core.kernels.segment_sum",
)

#: Layers whose float comparisons decide convergence (FLT002 scope).
CONVERGENCE_PREFIXES = (
    "repro.core",
    "repro.simulation",
    "repro.analysis",
    "repro.faults",
)

#: Identifier fragments that mark a value as convergence-path float.
_FLOATY_NAME = re.compile(
    r"(residual|epsilon|\beps\b|rank|tol|err|rel_change|change|delta|damping)",
    re.IGNORECASE,
)


def _identifier(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _eq_comparisons(tree: ast.Module) -> Iterator[ast.Compare]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            yield node


@register
class FloatSafetyChecker(Checker):
    """FLT001-FLT003: tolerance-based comparison in convergence paths,
    one summation order."""

    rules = (FLT001, FLT002, FLT003)
    scope = "file"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        in_convergence_layer = ctx.module.startswith(CONVERGENCE_PREFIXES)
        findings: List[Finding] = []
        if ctx.module != "repro.core.kernels":
            aliases = _collect_import_aliases(ctx.tree)
            findings += [
                self.finding(
                    FLT003,
                    ctx.path,
                    node.lineno,
                    "weighted np.bincount outside repro.core.kernels",
                    col=node.col_offset,
                )
                for node in ast.walk(ctx.tree)
                if isinstance(node, ast.Call)
                and _dotted(node.func, aliases) == "numpy.bincount"
                and (len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords))
            ]
        for cmp in _eq_comparisons(ctx.tree):
            operands = [cmp.left] + list(cmp.comparators)
            literal = next(
                (
                    o
                    for o in operands
                    if isinstance(o, ast.Constant) and isinstance(o.value, float)
                ),
                None,
            )
            if literal is not None:
                findings.append(
                    self.finding(
                        FLT001,
                        ctx.path,
                        cmp.lineno,
                        f"exact comparison against float literal "
                        f"{literal.value!r}",
                        col=cmp.col_offset,
                    )
                )
                continue
            if not in_convergence_layer:
                continue
            names = [_identifier(o) for o in operands]
            if all(name and _FLOATY_NAME.search(name) for name in names):
                joined = " == ".join(str(n) for n in names)
                findings.append(
                    self.finding(
                        FLT002,
                        ctx.path,
                        cmp.lineno,
                        f"exact equality between convergence floats ({joined})",
                        col=cmp.col_offset,
                    )
                )
        return findings
