"""Durable peer state and self-healing runtime supervision.

The paper's P2P setting assumes peers come and go (§3.1): a peer that
crashes loses its volatile protocol state, yet the network must keep
converging and the peer must rejoin without poisoning the ranking.
This package makes crash recovery a first-class, testable subsystem
for the asynchronous runtime (docs/PROTOCOL.md §15):

* **Durability** — :class:`WriteAheadLog` records every durable
  mutation's *inputs* (received update batches, recompute targets)
  so replay re-runs the identical
  floating-point operation sequence; :class:`PeerSnapshot` captures a
  compacted checkpoint; :class:`PeerJournal` ties both to a live peer
  with checkpoint-plus-tail compaction, and its replay is bitwise
  identical to the pre-crash peer (§15.1–§15.2, checked by
  :func:`durable_state_equal`).
* **Failure detection** — :class:`HeartbeatFailureDetector` turns
  heartbeat silence into suspicion via a hard timeout with an optional
  phi-accrual smoothing threshold (§15.3).
* **Supervision** — :class:`Supervisor` owns the crash timeline and
  the suspect-then-restart state machine the runtime executes
  (:class:`RecoveryConfig` holds the tunables); restarts replay
  WAL+snapshot and trigger neighbor re-publish anti-entropy (§15.4).
* **Chaos soak** — :func:`run_soak` (the ``repro soak`` CLI) runs
  randomized seeded crash/partition schedules under continuous
  invariant probes and reports :class:`SoakViolation` incidents as
  JSONL through :mod:`repro.obs`.
"""

from repro.recovery.detector import HeartbeatFailureDetector
from repro.recovery.journal import PeerJournal, durable_state_equal
from repro.recovery.snapshot import PeerSnapshot
from repro.recovery.soak import (
    SoakConfig,
    SoakReport,
    SoakViolation,
    build_soak_plan,
    run_soak,
)
from repro.recovery.supervisor import RecoveryConfig, Supervisor
from repro.recovery.wal import WalRecord, WriteAheadLog

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "PeerSnapshot",
    "PeerJournal",
    "durable_state_equal",
    "HeartbeatFailureDetector",
    "RecoveryConfig",
    "Supervisor",
    "SoakConfig",
    "SoakViolation",
    "SoakReport",
    "build_soak_plan",
    "run_soak",
]
