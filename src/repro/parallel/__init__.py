"""Multi-process sharded execution of the chaotic iteration.

The package runs the paper's per-peer concurrency (§2.3) on real OS
processes: peers are partitioned into shards, the live rank state
lives in one :mod:`multiprocessing.shared_memory` arena every worker
maps zero-copy, and passes proceed in barrier-separated
compute/publish phases whose cross-shard exchange is priced like the
paper's 24-byte update messages (§4.6.1).  The engine is deterministic
by construction: results depend on the shard count, never the worker
count.  The per-shard pass step, the pass loop and the partition live
in :mod:`repro.core.shard` — the serial
:class:`~repro.core.distributed.ChaoticPagerank` is their one-shard
case — so this package holds only the process machinery: the arena,
the worker entry point and :class:`ParallelPagerank`
(docs/PERFORMANCE.md "Sharded execution model").
"""

from repro.core.shard import ShardPlan, build_shard_plan
from repro.parallel.engine import ExchangeStats, ParallelPagerank
from repro.parallel.state import SharedArena, plan_layout

__all__ = [
    "ParallelPagerank",
    "ExchangeStats",
    "ShardPlan",
    "build_shard_plan",
    "SharedArena",
    "plan_layout",
]
