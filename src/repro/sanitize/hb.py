"""Happens-before race detection for the async peer runtime.

The paper's §4 incremental protocol is correct only under single-writer
discipline: each peer's durable state (rank, published, remote-value
tables) is mutated by its own task, with cross-peer influence flowing
exclusively through update messages.  This module checks that claim
*dynamically*, the way :mod:`repro.obs` checks performance: opt-in,
observation-only, byte-identical results when enabled.

Model (docs/STATIC_ANALYSIS.md, "Dynamic sanitizer"):

* Every runtime task (one per peer, plus the coordinator) carries a
  **vector clock**.  A peer ticks its component at each wake-up
  (mailbox hand-off: execution between awaits is atomic under asyncio,
  so one scalar "current task" suffices).
* **Message delivery** edges: the transport stamps each envelope with
  the sender's clock at submission; the receiving drain merges it.
* **Round barrier** edges: the deterministic scheduler's step loop
  ends each round with every task joined back to the coordinator —
  :meth:`RuntimeSanitizer.round_barrier` merges all clocks and
  redistributes, mirroring :class:`repro.runtime.clock.VirtualClock`'s
  advance rule.
* Durable peer dicts are wrapped in :class:`TrackedDict`; every read
  and write is journaled with the accessing task's clock snapshot
  (coalesced per epoch, so cost stays proportional to distinct
  accesses per wake-up).

Two accesses to the same (object, field) **race** when they come from
different tasks, at least one is a write, and their clock snapshots
are concurrent (neither happened-before the other).  Races are
reported as versioned findings (rule ``SAN001``) through the same
:mod:`repro.lint.findings` machinery as the static rules; schedule
divergence found by :mod:`repro.sanitize.explorer` is ``SAN002``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding, Rule, Severity, sort_findings
from repro.obs import get_registry

__all__ = [
    "SAN001",
    "SAN002",
    "VectorClock",
    "Access",
    "TrackedDict",
    "RuntimeSanitizer",
    "SanitizeRaceError",
]

SAN001 = Rule(
    id="SAN001",
    name="unordered-conflicting-access",
    summary="two tasks touched the same peer state with no "
    "happens-before edge and at least one write",
    hint="route the mutation through the owning task's mailbox, or "
    "order it behind the round barrier",
    severity=Severity.ERROR,
)
SAN002 = Rule(
    id="SAN002",
    name="schedule-divergence",
    summary="perturbing the delivery tie-break changed durable state — "
    "the run is order-dependent",
    hint="make folding order-insensitive (version dedup, commutative "
    "merges) or eliminate the unordered access",
    severity=Severity.ERROR,
)

READ = "read"
WRITE = "write"


class VectorClock:
    """A task's logical time: component per task name.

    Plain max/merge semantics; comparisons are the usual partial
    order.  Snapshots are cheap dict copies — the journal coalesces
    per epoch so few are taken.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        self._counts: Dict[str, int] = dict(counts) if counts else {}

    def get(self, task: str) -> int:
        return self._counts.get(task, 0)

    def tick(self, task: str) -> None:
        self._counts[task] = self._counts.get(task, 0) + 1

    def merge(self, other: "VectorClock") -> None:
        for task, count in other._counts.items():
            if count > self._counts.get(task, 0):
                self._counts[task] = count

    def snapshot(self) -> "VectorClock":
        return VectorClock(self._counts)

    def leq(self, other: "VectorClock") -> bool:
        """Every component ≤ the other's — "happened before or equal"."""
        return all(
            count <= other._counts.get(task, 0)
            for task, count in self._counts.items()
        )

    def concurrent(self, other: "VectorClock") -> bool:
        return not self.leq(other) and not other.leq(self)

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(self._counts.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{t}:{c}" for t, c in sorted(self._counts.items())
        )
        return f"VectorClock({inner})"


@dataclass(frozen=True)
class Access:
    """One coalesced journal entry: a task touched ``obj.field``.

    ``barrier`` is the round-barrier interval the access fell in; only
    same-interval accesses can be concurrent (the barrier orders
    everything across intervals), which keeps race search linear in
    journal length.
    """

    task: str
    obj: str
    field: str
    kind: str
    clock: VectorClock
    barrier: int


class TrackedDict(dict):
    """A peer's durable dict with read/write journaling attached.

    Subclasses :class:`dict` so wrapped state behaves identically —
    same contents, same ``==``, same iteration order — and the
    byte-identical-results guarantee holds.  Accesses route to the
    owning :class:`RuntimeSanitizer` under whatever task is current.
    """

    _san: Optional["RuntimeSanitizer"] = None
    _obj: str = ""
    _field: str = ""

    def _bind(self, san: "RuntimeSanitizer", obj: str, field: str) -> None:
        self._san = san
        self._obj = obj
        self._field = field

    def _note(self, kind: str) -> None:
        if self._san is not None:
            self._san.record(self._obj, self._field, kind)

    # -- reads ----------------------------------------------------------
    def __getitem__(self, key):  # type: ignore[no-untyped-def]
        self._note(READ)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):  # type: ignore[no-untyped-def, override]
        self._note(READ)
        return dict.get(self, key, default)

    def __contains__(self, key):  # type: ignore[no-untyped-def]
        self._note(READ)
        return dict.__contains__(self, key)

    def __iter__(self):  # type: ignore[no-untyped-def]
        self._note(READ)
        return dict.__iter__(self)

    def keys(self):  # type: ignore[no-untyped-def]
        self._note(READ)
        return dict.keys(self)

    def values(self):  # type: ignore[no-untyped-def]
        self._note(READ)
        return dict.values(self)

    def items(self):  # type: ignore[no-untyped-def]
        self._note(READ)
        return dict.items(self)

    def copy(self):  # type: ignore[no-untyped-def]
        self._note(READ)
        return dict.copy(self)

    # -- writes ---------------------------------------------------------
    def __setitem__(self, key, value):  # type: ignore[no-untyped-def]
        self._note(WRITE)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key):  # type: ignore[no-untyped-def]
        self._note(WRITE)
        dict.__delitem__(self, key)

    def pop(self, *args):  # type: ignore[no-untyped-def]
        self._note(WRITE)
        return dict.pop(self, *args)

    def popitem(self):  # type: ignore[no-untyped-def]
        self._note(WRITE)
        return dict.popitem(self)

    def clear(self):  # type: ignore[no-untyped-def]
        self._note(WRITE)
        dict.clear(self)

    def update(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        self._note(WRITE)
        dict.update(self, *args, **kwargs)

    def setdefault(self, key, default=None):  # type: ignore[no-untyped-def]
        self._note(WRITE)
        return dict.setdefault(self, key, default)


#: Peer attributes holding durable single-writer state (the WAL's
#: replay surface, docs/PROTOCOL.md §15).
_TRACKED_PEER_FIELDS = (
    "rank",
    "published",
    "remote_values",
    "_remote_versions",
    "_publish_version",
)


class _SanitizerInstruments:
    """``sanitizer.*`` metric handles (docs/OBSERVABILITY.md §11)."""

    __slots__ = ("accesses", "hb_edges", "races")

    def __init__(self, reg) -> None:  # type: ignore[no-untyped-def]
        self.accesses = reg.counter(
            "sanitizer.accesses", unit="accesses",
            description="tracked peer-state reads/writes journaled "
            "(coalesced per task epoch)",
        )
        self.hb_edges = reg.counter(
            "sanitizer.hb_edges", unit="edges",
            description="happens-before edges built (message stamps "
            "merged + round barriers)",
        )
        self.races = reg.counter(
            "sanitizer.races", unit="findings",
            description="unordered conflicting access pairs reported "
            "(SAN001)",
        )


class SanitizeRaceError(RuntimeError):
    """Raised at the end of a ``REPRO_SANITIZE=1`` run that found races."""

    def __init__(self, findings: List[Finding]) -> None:
        self.findings = findings
        locations = ", ".join(
            f"{f.path} ({f.message})" for f in findings[:3]
        )
        more = f" (+{len(findings) - 3} more)" if len(findings) > 3 else ""
        super().__init__(
            f"sanitizer found {len(findings)} unordered conflicting "
            f"access pair(s): {locations}{more}"
        )


class RuntimeSanitizer:
    """Happens-before race detector for one runtime run.

    The runtime owns the integration points: it registers tasks and
    wraps peers at construction, the transport stamps envelopes at
    submission, nodes call :meth:`begin_step` at each wake-up and
    :meth:`recv` per applied envelope, and the scheduler calls
    :meth:`round_barrier` after each step loop.  Everything here is
    observation-only — no call mutates runtime state.
    """

    COORDINATOR = "coordinator"

    def __init__(self, registry=None) -> None:  # type: ignore[no-untyped-def]
        self._clocks: Dict[str, VectorClock] = {
            self.COORDINATOR: VectorClock()
        }
        self._current: str = self.COORDINATOR
        self._journal: List[Access] = []
        self._stamps: Dict[int, VectorClock] = {}
        self._seen: Dict[str, Set[Tuple[str, str, str]]] = {
            self.COORDINATOR: set()
        }
        self._barrier_count = 0
        self._edges = 0
        self._access_ops = 0
        self._instruments = _SanitizerInstruments(
            registry if registry is not None else get_registry()
        )
        self._finalized = False

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def register_task(self, name: str) -> None:
        """Create a clock for ``name`` (idempotent — a restarted peer
        task keeps its history so pre-crash edges survive)."""
        if name not in self._clocks:
            self._clocks[name] = VectorClock()
            self._seen[name] = set()

    def begin_step(self, name: str) -> None:
        """A task woke up: tick its clock and make it current.

        Execution between awaits is atomic under asyncio, so a single
        current-task scalar is enough to attribute accesses.
        """
        self._current = name
        self._clocks[name].tick(name)
        self._seen[name].clear()

    def wrap_peer(self, peer) -> None:  # type: ignore[no-untyped-def]
        """Swap the peer's durable dicts for tracked equivalents.

        Called at construction and again after a WAL replay (the
        replayed peer carries fresh plain dicts).
        """
        obj = f"peer{peer.peer_id}"
        for attr in _TRACKED_PEER_FIELDS:
            current = getattr(peer, attr)
            if isinstance(current, TrackedDict):
                continue
            tracked = TrackedDict(current)
            tracked._bind(self, obj, attr.lstrip("_"))
            setattr(peer, attr, tracked)

    # ------------------------------------------------------------------
    # Happens-before edges
    # ------------------------------------------------------------------
    def stamp(self, envelope) -> None:  # type: ignore[no-untyped-def]
        """Record the sender's clock on a scheduled envelope.

        Keyed by object identity: duplicate flight copies are distinct
        envelope objects even when they compare equal.
        """
        self._stamps[id(envelope)] = self._clocks[self._current].snapshot()

    def recv(self, envelope) -> None:  # type: ignore[no-untyped-def]
        """Merge the sender's stamp into the applying task's clock."""
        stamp = self._stamps.pop(id(envelope), None)
        if stamp is None:
            return
        clock = self._clocks[self._current]
        clock.merge(stamp)
        self._seen[self._current].clear()
        self._edges += 1

    def round_barrier(self) -> None:
        """The scheduler's end-of-round join: merge every task's clock,
        tick the coordinator, and redistribute — everything before the
        barrier happens-before everything after it."""
        merged = VectorClock()
        for clock in self._clocks.values():
            merged.merge(clock)
        merged.tick(self.COORDINATOR)
        for name in self._clocks:
            self._clocks[name] = merged.snapshot()
            self._seen[name].clear()
        self._current = self.COORDINATOR
        self._barrier_count += 1
        self._edges += len(self._clocks)

    # ------------------------------------------------------------------
    # Access journal
    # ------------------------------------------------------------------
    def record(self, obj: str, field: str, kind: str) -> None:
        """Journal one access under the current task (coalesced per
        epoch: repeated identical accesses between clock changes carry
        the same snapshot and are recorded once)."""
        self._access_ops += 1
        task = self._current
        key = (obj, field, kind)
        seen = self._seen[task]
        if key in seen:
            return
        seen.add(key)
        self._journal.append(
            Access(
                task=task,
                obj=obj,
                field=field,
                kind=kind,
                clock=self._clocks[task].snapshot(),
                barrier=self._barrier_count,
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def races(self) -> List[Finding]:
        """Conflicting unordered access pairs, as sorted findings.

        Only same-barrier-interval pairs are compared — the barrier
        orders everything across intervals — so the search is linear
        in journal length for the clean tree.
        """
        groups: Dict[Tuple[str, str, int], List[Access]] = {}
        for access in self._journal:
            groups.setdefault(
                (access.obj, access.field, access.barrier), []
            ).append(access)
        reported: Set[Tuple[str, str, str, str, str, str]] = set()
        findings: List[Finding] = []
        for (obj, field, _), accesses in sorted(groups.items()):
            for i, a in enumerate(accesses):
                for b in accesses[i + 1:]:
                    if a.task == b.task:
                        continue
                    if a.kind == READ and b.kind == READ:
                        continue
                    if not a.clock.concurrent(b.clock):
                        continue
                    first, second = sorted(
                        (a, b), key=lambda x: (x.task, x.kind)
                    )
                    key = (
                        obj, field,
                        first.task, first.kind,
                        second.task, second.kind,
                    )
                    if key in reported:
                        continue
                    reported.add(key)
                    findings.append(
                        Finding(
                            rule=SAN001.id,
                            path=f"runtime://{obj}/{field}",
                            line=0,
                            message=(
                                f"unordered {first.kind} by "
                                f"{first.task} and {second.kind} by "
                                f"{second.task} on {obj}.{field}"
                            ),
                            severity=SAN001.severity,
                            hint=SAN001.hint,
                        )
                    )
        return sort_findings(findings)

    def findings(self) -> List[Finding]:
        """Alias for :meth:`races` (symmetry with the lint engine)."""
        return self.races()

    def finalize(self) -> List[Finding]:
        """Emit ``sanitizer.*`` metrics once and return the findings."""
        findings = self.races()
        if not self._finalized:
            self._finalized = True
            self._instruments.accesses.inc(len(self._journal))
            self._instruments.hb_edges.inc(self._edges)
            self._instruments.races.inc(len(findings))
        return findings

    @property
    def journal_length(self) -> int:
        return len(self._journal)
