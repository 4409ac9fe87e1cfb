"""Append-only write-ahead log of one peer's durable mutations.

The paper's protocol assumes peers "may be disconnected at any time"
(§3.1), and asynchronous-iteration theory (Kollias et al., PAPERS.md)
only guarantees convergence under restarts if a recovered peer resumes
from *consistent* local state.  The WAL is how that state survives: a
:class:`WriteAheadLog` records every durable mutation of a
:class:`~repro.p2p.peer.Peer` — applied update batches and
event-driven recomputes — as one :class:`WalRecord` per mutation, in
apply order.  Replaying the log against a fresh peer (see
:mod:`repro.recovery.journal`) re-executes the *same* float operations
in the *same* order and therefore reproduces the pre-crash durable
state bitwise — the property the crash-recovery differential tests
assert.

Record format (docs/PROTOCOL.md §15.1):

``recv``
    A received update batch, payload ``[(target, source, value,
    version), ...]`` — replay folds it through ``Peer.receive_batch``
    (idempotent, version-gated, so suppressed duplicates re-suppress).
``comp``
    One event-driven recompute, payload ``doc`` — replay re-runs
    ``Peer.recompute_document`` with the run's fixed parameters.

The log is in-memory by default; give it a ``path`` to mirror every
record to a JSON-lines file (floats serialise via ``repr`` and
round-trip binary64 exactly).  :meth:`truncate` discards records made
obsolete by a snapshot (compaction — :mod:`repro.recovery.snapshot`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterator, List, Optional, Tuple

__all__ = ["WalRecord", "WriteAheadLog", "RECORD_KINDS"]

#: The durable-mutation record kinds (docs/PROTOCOL.md §15.1).
RECORD_KINDS = ("recv", "comp")


@dataclass(frozen=True)
class WalRecord:
    """One durable mutation: ``kind`` plus its JSON-safe payload.

    Attributes
    ----------
    kind:
        One of :data:`RECORD_KINDS`.
    payload:
        ``recv`` — tuple of ``(target, source, value, version)``
        tuples; ``comp`` — the document id.
    """

    kind: str
    payload: object

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown WAL record kind {self.kind!r}")

    def to_json(self) -> str:
        """One JSON line (compact separators, repr-exact floats)."""
        return json.dumps(
            {"kind": self.kind, "payload": self.payload},
            separators=(",", ":"),
            default=list,
        )

    @classmethod
    def from_json(cls, line: str) -> "WalRecord":
        """Parse a line written by :meth:`to_json`."""
        body = json.loads(line)
        kind = body["kind"]
        payload = body["payload"]
        if kind == "recv":
            payload = tuple(
                (int(t), int(s), float(v), int(ver)) for t, s, v, ver in payload
            )
        elif kind == "comp":
            payload = int(payload)
        return cls(kind=kind, payload=payload)


class WriteAheadLog:
    """Ordered append-only record store with optional file mirroring.

    Parameters
    ----------
    path:
        Optional JSON-lines file to mirror appends into (opened in
        write mode — one log file per peer per run).  The in-memory
        list stays authoritative; the file exists so an external
        process can audit or replay the run (docs/PROTOCOL.md §15.1).
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._records: List[WalRecord] = []
        self.path = path
        self._file: Optional[IO[str]] = None
        if path is not None:
            self._file = open(path, "w", encoding="utf-8")
        #: Total records ever appended (not reset by truncation).
        self.appended = 0
        #: Records discarded by snapshot compaction.
        self.truncated = 0

    # ------------------------------------------------------------------
    def append(self, record: WalRecord) -> None:
        """Append one record (log-then-apply is the caller's contract)."""
        self._records.append(record)
        self.appended += 1
        if self._file is not None:
            self._file.write(record.to_json() + "\n")
            self._file.flush()

    def records(self) -> Tuple[WalRecord, ...]:
        """The live (un-truncated) records, oldest first."""
        return tuple(self._records)

    def __iter__(self) -> Iterator[WalRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def truncate(self) -> int:
        """Drop every live record (a snapshot has superseded them).

        Returns the number of records discarded.  The mirror file is
        left intact: it is the full history, not the compacted view.
        """
        dropped = len(self._records)
        self._records.clear()
        self.truncated += dropped
        return dropped

    def close(self) -> None:
        """Close the mirror file (no-op for in-memory logs)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    @staticmethod
    def load(path: str) -> List[WalRecord]:
        """Read back a mirror file written by a file-backed log."""
        out: List[WalRecord] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(WalRecord.from_json(line))
        return out
