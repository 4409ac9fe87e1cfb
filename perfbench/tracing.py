"""Span tracing for the traced benchmark run.

The traced run wraps batch-level entry points of each layer from the
benchmark's own files (class attributes are patched for the life of
one child process and restored afterwards); nothing inside ``src/``
changes.  Every wrapped call records a span ``[name, start, end,
parent]`` in memory; the spans are written out once, when the
iteration ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "layer_table"]

Span = List  # [name, start, end, parent_index]


class Tracer:
    """In-memory span recorder with class-attribute wrapping.

    ``wrap`` replaces ``owner.attr`` with a recording wrapper; ``on_result``
    (if given) is called as ``on_result(args, kwargs, result)`` after the
    call so counts can be taken from arguments and return values.
    ``restore`` puts every original attribute back.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._clock = clock
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self._clock()
        # Pop down to (and including) this span; a well-nested caller
        # always finds it on top.
        while self._stack:
            if self._stack.pop() == idx:
                break

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: ``{"calls", "total_s", "self_s"}``.

    ``total_s`` sums span durations; ``self_s`` sums, per span, its
    duration minus the union of its children's intervals.  Unclosed
    spans are ignored.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if end is not None and parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, Dict[str, float]] = {}
    for idx, (name, start, end, _parent) in enumerate(spans):
        if end is None:
            continue
        dur = end - start
        own = dur - _covered(children.get(idx, []), start, end)
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += own
    return out


def layer_table(by_name: Dict[str, Dict[str, float]], total_s: float) -> List[str]:
    """Lines ranking span names by self time, with call counts and each
    one's share of ``total_s`` (the iteration's set-up and run time)."""
    lines = [f"{'span':24} {'self_s':>9} {'share':>7} {'calls':>9}"]
    for name, row in sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / total_s if total_s > 0 else 0.0
        lines.append(
            f"{name:24} {row['self_s']:9.4f} {share:7.1%} {int(row['calls']):9d}"
        )
    return lines
