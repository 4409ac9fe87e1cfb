"""Worker processes of the multi-process backend.

A worker OS process receives the run's
:class:`~repro.core.shard.WorkerState` from the parent, which builds
the derived context (reverse CSR, shard plan, cross-peer edge mask)
once per engine: ``fork`` inherits it without
a copy, ``spawn`` pickles it.  The worker attaches the shared arena —
the arrays parties write — and drives its round-robin share of the
shards through :func:`repro.core.shard.run_shards`, the pass loop
every party runs, with a barrier wait between phases.  It records
nothing: the parent runs the same loop over no shards and does the
accounting (docs/PERFORMANCE.md "Sharded execution model").
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import replace
from functools import partial
from typing import Any, Callable, List, Sequence

from repro.core.shard import ShardRunner, StarvationError, WorkerState
from repro.parallel.state import PlacedSpec, SharedArena

__all__ = ["BARRIER_TIMEOUT_S", "worker_main"]

#: Parent/worker barrier rendezvous budget before declaring a hang.
BARRIER_TIMEOUT_S = 300.0


def _no_record(t: int, live_peers: int) -> None:
    """Workers leave the pass record to the parent."""


def worker_main(
    worker_id: int,
    shards: Sequence[int],
    state: WorkerState,
    loop: Callable[..., bool],
    shm_name: str,
    layout: List[PlacedSpec],
    barrier: Any,
    errors: Any,
    untrack_shm: bool = False,
) -> None:
    """Worker process entry point (top-level so ``spawn`` can pickle it).

    Attaches the shared arena by name and runs ``loop`` — the run's
    :func:`~repro.core.shard.run_shards` with its control bound — over
    ``shards``.  Any failure is reported through ``errors`` and the
    barrier is aborted so no party deadlocks.
    """
    arena = SharedArena.attach(shm_name, layout, untrack=untrack_shm)
    try:
        state = replace(state, views=arena.views())
        loop(
            [ShardRunner(state, s) for s in shards], state=state,
            record=_no_record, sync=partial(barrier.wait, BARRIER_TIMEOUT_S),
        )
    except StarvationError:
        # Every party detects the same starvation at the same pass; the
        # parent raises it, workers stand down.
        pass
    except threading.BrokenBarrierError:  # pragma: no cover - peer failed
        pass
    except Exception:  # pragma: no cover - exercised via machinery tests
        errors.put((worker_id, traceback.format_exc()))
        barrier.abort()
    finally:
        arena.close()
