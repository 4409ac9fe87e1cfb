"""Concurrency rules (CNC*): await-safety for the async peer runtime.

Rule catalogue and examples: ``docs/STATIC_ANALYSIS.md``.

The asyncio runtime (:mod:`repro.runtime`) keeps the paper's §4
exactly-once mutation ordering only because every peer's state is
touched by exactly one task and never across a yield point unguarded.
Awaits are the seams where that claim can silently tear: between
``await`` and the next statement *any* other task may have run.  These
rules flag the async anti-patterns that break the single-writer
discipline the dynamic sanitizer (:mod:`repro.sanitize`) checks at
runtime:

* CNC001 — a value read from ``self``/nonlocal shared state *before*
  an ``await`` is written back *after* it without being re-read in
  between (a stale read-modify-write spanning a yield point).
* CNC002 — blocking calls (``time.sleep``, synchronous sockets,
  ``queue.Queue``, ``subprocess``) inside ``async def``: they stall
  the entire event loop, not one task.
* CNC003 — a coroutine called as a bare statement: the coroutine
  object is created and discarded, the body never runs.
* CNC004 — the same shared runtime object (peer / mailbox / WAL /
  journal / outbox) captured into more than one ``create_task``
  closure — two tasks aliasing single-writer state.
* CNC005 — an asyncio primitive created at import time (module or
  class scope): it binds whatever loop is current *then*, not the
  runtime's loop (loop affinity must be established inside the
  owning task or constructor).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.base import Checker, FileContext, register
from repro.lint.checkers.determinism import _collect_import_aliases, _dotted
from repro.lint.findings import Finding, Rule

__all__ = ["ConcurrencyChecker"]

CNC001 = Rule(
    id="CNC001",
    name="stale-write-across-await",
    summary="shared state read before an await is written back after it "
    "without re-validation",
    hint="re-read the attribute after the await (other tasks may have "
    "run) or restructure so the read-modify-write has no yield point",
)
CNC002 = Rule(
    id="CNC002",
    name="blocking-call-in-async",
    summary="blocking call inside async def stalls the whole event loop",
    hint="use the asyncio equivalent (asyncio.sleep, streams, "
    "asyncio.Queue) or push the work through a thread executor",
)
CNC003 = Rule(
    id="CNC003",
    name="unawaited-coroutine",
    summary="coroutine called as a bare statement — the body never runs",
    hint="await it, or wrap it in asyncio.create_task(...) if it should "
    "run concurrently",
)
CNC004 = Rule(
    id="CNC004",
    name="cross-task-aliasing",
    summary="the same peer/mailbox/WAL object is captured into more than "
    "one create_task closure",
    hint="single-writer discipline: give each task its own objects, or "
    "route cross-task access through messages",
)
CNC005 = Rule(
    id="CNC005",
    name="primitive-outside-loop",
    summary="asyncio primitive created at import time (module/class "
    "scope) binds the wrong event loop",
    hint="construct Event/Lock/Queue inside the owning task or the "
    "runtime constructor, where the loop is the runtime's own",
)

#: Fully-qualified callables that block the event loop (CNC002).
_BLOCKING_CALLS = {
    "time.sleep",
    "queue.Queue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
    "queue.SimpleQueue",
    "socket.socket",
    "socket.create_connection",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "urllib.request.urlopen",
    "os.system",
    "os.waitpid",
}

#: asyncio coroutine functions a bare-statement call silently discards.
_ASYNC_STDLIB = {
    "asyncio.sleep",
    "asyncio.gather",
    "asyncio.wait",
    "asyncio.wait_for",
    "asyncio.shield",
    "asyncio.to_thread",
    "asyncio.open_connection",
    "asyncio.start_server",
}

#: Task-spawning entry points whose closures CNC004 inspects.
_SPAWN_ATTRS = {"create_task", "ensure_future"}

#: Identifier stems naming single-writer runtime state (CNC004).
_SHARED_STEMS = ("peer", "mailbox", "wal", "journal", "outbox")

#: asyncio primitives with loop affinity (CNC005).
_LOOP_PRIMITIVES = {
    "asyncio.Event",
    "asyncio.Lock",
    "asyncio.Condition",
    "asyncio.Semaphore",
    "asyncio.BoundedSemaphore",
    "asyncio.Queue",
    "asyncio.LifoQueue",
    "asyncio.PriorityQueue",
    "asyncio.Barrier",
}

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _shared_chain(expr: ast.expr, roots: Set[str]) -> Optional[str]:
    """Dotted chain for an attribute/subscript path rooted at a shared
    name (``self`` or a ``nonlocal``/``global`` binding).  Subscripts
    collapse onto their base (``self.rank[d]`` -> ``self.rank``)."""
    parts: List[str] = []
    node: ast.AST = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name) and node.id in roots:
        return ".".join([node.id] + parts[::-1])
    return None


class _Event:
    """One ordered occurrence inside an async body: a shared-state load,
    a shared-state store, a local binding, or an await (yield point).

    ``value`` carries the assigned expression for ``store`` and
    ``bind`` events so the stale-write analysis can trace which reads
    flow into which writes.
    """

    __slots__ = ("kind", "chain", "node", "value")

    def __init__(
        self,
        kind: str,
        chain: Optional[str],
        node: ast.AST,
        value: Optional[ast.expr] = None,
    ) -> None:
        self.kind = kind
        self.chain = chain
        self.node = node
        self.value = value


class _AsyncBodyScanner:
    """Linearise an async function body into load/store/await events.

    Statements are visited in source order; nested function/class
    definitions are opaque (their bodies run in another frame).  The
    linearisation is an approximation — loop bodies are traversed once
    — but it is exactly the order a single fall-through execution sees,
    which is what the stale-read rule reasons about.
    """

    def __init__(self, roots: Set[str]) -> None:
        self.roots = roots
        self.events: List[_Event] = []

    # -- statements -----------------------------------------------------
    def scan_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.scan_stmt(stmt)

    def scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # another frame
        if isinstance(stmt, ast.Assign):
            self.scan_expr(stmt.value)
            for target in stmt.targets:
                self.scan_target(target, value=stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.scan_expr(stmt.value)
            # Read-modify-write with no yield point in between: emit the
            # load immediately before the store so CNC001 sees it as
            # revalidated.
            self.scan_expr(stmt.target, load_only=True)
            self.scan_target(stmt.target, value=stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.scan_expr(stmt.value)
                self.scan_target(stmt.target, value=stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.scan_target(target)
        elif isinstance(stmt, ast.Expr):
            self.scan_expr(stmt.value)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            value = stmt.value if isinstance(stmt, ast.Return) else stmt.exc
            if value is not None:
                self.scan_expr(value)
        elif isinstance(stmt, ast.If):
            self.scan_expr(stmt.test)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.scan_expr(stmt.test)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.scan_expr(stmt.iter)
            if isinstance(stmt, ast.AsyncFor):
                self.events.append(_Event("await", None, stmt))
            self.scan_target(stmt.target, value=stmt.iter)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.scan_expr(item.context_expr)
                if item.optional_vars is not None:
                    self.scan_target(item.optional_vars, value=item.context_expr)
            if isinstance(stmt, ast.AsyncWith):
                self.events.append(_Event("await", None, stmt))
            self.scan_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.scan_body(stmt.body)
            for handler in stmt.handlers:
                self.scan_body(handler.body)
            self.scan_body(stmt.orelse)
            self.scan_body(stmt.finalbody)
        elif isinstance(stmt, ast.Assert):
            self.scan_expr(stmt.test)
            if stmt.msg is not None:
                self.scan_expr(stmt.msg)
        # Pass/Break/Continue/Import/Global/Nonlocal: no events.

    # -- expressions ----------------------------------------------------
    def scan_expr(self, expr: ast.expr, *, load_only: bool = False) -> None:
        if isinstance(expr, ast.Await):
            self.scan_expr(expr.value)
            if not load_only:
                self.events.append(_Event("await", None, expr))
            return
        if isinstance(expr, _FUNC_NODES):
            return  # another frame
        if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Name)):
            chain = _shared_chain(expr, self.roots)
            if chain is not None and "." in chain:
                self.events.append(_Event("load", chain, expr))
            # Still scan subscript indices and non-rooted bases.
            if isinstance(expr, ast.Subscript):
                if chain is None:
                    self.scan_expr(expr.value, load_only=load_only)
                self.scan_expr(expr.slice, load_only=load_only)
            elif isinstance(expr, ast.Attribute) and chain is None:
                self.scan_expr(expr.value, load_only=load_only)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.scan_expr(child, load_only=load_only)
            elif isinstance(child, ast.keyword):
                self.scan_expr(child.value, load_only=load_only)
            elif isinstance(child, ast.comprehension):
                self.scan_expr(child.iter, load_only=load_only)
                for cond in child.ifs:
                    self.scan_expr(cond, load_only=load_only)

    def scan_target(
        self, target: ast.expr, value: Optional[ast.expr] = None
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.scan_target(element, value=value)
            return
        if isinstance(target, ast.Starred):
            self.scan_target(target.value, value=value)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            chain = _shared_chain(target, self.roots)
            if chain is not None:
                # Subscript indices are reads even in a store position.
                if isinstance(target, ast.Subscript):
                    self.scan_expr(target.slice)
                self.events.append(_Event("store", chain, target, value))
                return
            # Unrooted target: its base expression is still evaluated.
            self.scan_expr(target.value)
            if isinstance(target, ast.Subscript):
                self.scan_expr(target.slice)
            return
        if isinstance(target, ast.Name):
            if target.id in self.roots:
                # Rebinding a nonlocal/global name is a shared-state store.
                self.events.append(_Event("store", target.id, target, value))
            else:
                # Local binding: taint bookkeeping for the stale-write rule.
                self.events.append(_Event("bind", target.id, target, value))


def _declared_shared_names(func: ast.AsyncFunctionDef) -> Set[str]:
    roots = {"self"}
    for stmt in ast.walk(func):
        if isinstance(stmt, (ast.Nonlocal, ast.Global)):
            roots.update(stmt.names)
    return roots


def _walk_function_scope(func: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested frames."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class ConcurrencyChecker(Checker):
    """CNC001-CNC005: await-safety for asyncio code."""

    rules = (CNC001, CNC002, CNC003, CNC004, CNC005)
    scope = "file"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        aliases = _collect_import_aliases(ctx.tree)
        async_defs = [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, ast.AsyncFunctionDef)
        ]
        module_async_names = self._async_callable_names(ctx.tree)
        findings: List[Finding] = []
        for func in async_defs:
            findings.extend(self._check_stale_writes(ctx, func))
            findings.extend(self._check_blocking_calls(ctx, func, aliases))
            findings.extend(
                self._check_bare_coroutines(ctx, func, aliases, module_async_names)
            )
        findings.extend(self._check_cross_task_aliasing(ctx, aliases))
        findings.extend(self._check_import_time_primitives(ctx, aliases))
        return findings

    # -- CNC001 ---------------------------------------------------------
    @staticmethod
    def _matches(load_chain: str, store_chain: str) -> bool:
        """Does reading ``load_chain`` observe the state ``store_chain``
        writes?  Equal, or a deeper path through it."""
        return load_chain == store_chain or load_chain.startswith(
            store_chain + "."
        )

    @classmethod
    def _chains_in(cls, expr: ast.expr, roots: Set[str]) -> Set[str]:
        """Every shared chain referenced anywhere in ``expr``."""
        chains: Set[str] = set()
        for node in ast.walk(expr):
            if isinstance(node, (ast.Attribute, ast.Subscript)):
                chain = _shared_chain(node, roots)
                if chain is not None:
                    chains.add(chain)
        return chains

    @staticmethod
    def _names_in(expr: ast.expr) -> Set[str]:
        return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}

    def _check_stale_writes(
        self, ctx: FileContext, func: ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        roots = _declared_shared_names(func)
        scanner = _AsyncBodyScanner(roots)
        scanner.scan_body(func.body)
        events = scanner.events
        await_indices = [i for i, e in enumerate(events) if e.kind == "await"]
        if not await_indices:
            return
        last_load: Dict[str, int] = {}
        # Local name -> {shared chain it carries a value of: read position}.
        taint: Dict[str, Dict[str, int]] = {}
        reported: Set[Tuple[int, int]] = set()
        for i, event in enumerate(events):
            if event.kind == "load":
                assert event.chain is not None
                last_load[event.chain] = i
            elif event.kind == "bind":
                name = event.chain
                assert name is not None
                carried: Dict[str, int] = {}
                if event.value is not None:
                    for chain in self._chains_in(event.value, roots):
                        carried[chain] = i
                    for ref in self._names_in(event.value):
                        for chain, pos in taint.get(ref, {}).items():
                            carried[chain] = min(carried.get(chain, pos), pos)
                if carried:
                    taint[name] = carried
                else:
                    taint.pop(name, None)
            elif event.kind == "store":
                chain = event.chain
                assert chain is not None
                # Read positions whose values flow into this write.
                sources: List[int] = []
                if event.value is not None:
                    direct = self._chains_in(event.value, roots)
                    if any(self._matches(c, chain) for c in direct):
                        loads = [
                            idx for c, idx in last_load.items()
                            if self._matches(c, chain)
                        ]
                        if loads:
                            sources.append(max(loads))
                    for ref in self._names_in(event.value):
                        for c, pos in taint.get(ref, {}).items():
                            if self._matches(c, chain):
                                sources.append(pos)
                # A store refreshes what later events see.
                last_load[chain] = i
                if not sources:
                    continue
                # Stale if any contributing read is separated from this
                # write by a yield point.
                if not any(
                    any(src < a < i for a in await_indices) for src in sources
                ):
                    continue
                node = event.node
                key = (node.lineno, node.col_offset)
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding(
                    CNC001,
                    ctx.path,
                    node.lineno,
                    f"{chain} is written from a value read before an "
                    "await, with no re-read after it — the value may be "
                    "stale",
                    col=node.col_offset,
                )

    # -- CNC002 ---------------------------------------------------------
    def _check_blocking_calls(
        self,
        ctx: FileContext,
        func: ast.AsyncFunctionDef,
        aliases: Dict[str, str],
    ) -> Iterable[Finding]:
        for node in _walk_function_scope(func):
            if not isinstance(node, ast.Call):
                continue
            path = _dotted(node.func, aliases)
            if path in _BLOCKING_CALLS:
                yield self.finding(
                    CNC002,
                    ctx.path,
                    node.lineno,
                    f"blocking call {path}() inside async def "
                    f"{func.name} stalls the event loop",
                    col=node.col_offset,
                )

    # -- CNC003 ---------------------------------------------------------
    @staticmethod
    def _async_callable_names(tree: ast.Module) -> Set[str]:
        """Names of every async def in the module (functions and
        methods) — the universe a bare call can silently discard."""
        return {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.AsyncFunctionDef)
        }

    def _check_bare_coroutines(
        self,
        ctx: FileContext,
        func: ast.AsyncFunctionDef,
        aliases: Dict[str, str],
        async_names: Set[str],
    ) -> Iterable[Finding]:
        for node in _walk_function_scope(func):
            if not isinstance(node, ast.Expr) or not isinstance(
                node.value, ast.Call
            ):
                continue
            call = node.value
            callee = call.func
            coroutine: Optional[str] = None
            path = _dotted(callee, aliases)
            if path in _ASYNC_STDLIB:
                coroutine = path
            elif isinstance(callee, ast.Name) and callee.id in async_names:
                coroutine = callee.id
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr in async_names
            ):
                coroutine = callee.attr
            if coroutine is None:
                continue
            yield self.finding(
                CNC003,
                ctx.path,
                call.lineno,
                f"coroutine {coroutine}() called without await — the "
                "coroutine object is created and discarded",
                col=call.col_offset,
            )

    # -- CNC004 ---------------------------------------------------------
    @staticmethod
    def _suspect_stems(call: ast.Call) -> Set[str]:
        stems: Set[str] = set()
        for arg in list(call.args) + [k.value for k in call.keywords]:
            for sub in ast.walk(arg):
                name: Optional[str] = None
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                if name is None:
                    continue
                if name in _SHARED_STEMS or any(
                    name.endswith("_" + stem) for stem in _SHARED_STEMS
                ):
                    stems.add(name)
        return stems

    def _check_cross_task_aliasing(
        self, ctx: FileContext, aliases: Dict[str, str]
    ) -> Iterable[Finding]:
        functions = [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in functions:
            spawned: Dict[str, ast.Call] = {}
            for node in _walk_function_scope(func):
                if not isinstance(node, ast.Call):
                    continue
                attr = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else node.func.id if isinstance(node.func, ast.Name) else None
                )
                if attr not in _SPAWN_ATTRS:
                    continue
                for stem in sorted(self._suspect_stems(node)):
                    first = spawned.get(stem)
                    if first is None:
                        spawned[stem] = node
                    elif first is not node:
                        yield self.finding(
                            CNC004,
                            ctx.path,
                            node.lineno,
                            f"shared object {stem!r} is captured by more "
                            "than one spawned task in "
                            f"{func.name} — cross-task aliasing of "
                            "single-writer state",
                            col=node.col_offset,
                        )

    # -- CNC005 ---------------------------------------------------------
    def _check_import_time_primitives(
        self, ctx: FileContext, aliases: Dict[str, str]
    ) -> Iterable[Finding]:
        # Walk with scope tracking: flag calls at module or class scope
        # (executed at import time), skip anything inside a function.
        def visit(body: List[ast.stmt]) -> Iterable[Finding]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, ast.ClassDef):
                    yield from visit(stmt.body)
                    continue
                for node in ast.walk(stmt):
                    if isinstance(node, _FUNC_NODES):
                        continue
                    if not isinstance(node, ast.Call):
                        continue
                    path = _dotted(node.func, aliases)
                    if path in _LOOP_PRIMITIVES:
                        yield self.finding(
                            CNC005,
                            ctx.path,
                            node.lineno,
                            f"{path}() created at import time binds the "
                            "import-time event loop, not the runtime's",
                            col=node.col_offset,
                        )

        return visit(ctx.tree.body)
