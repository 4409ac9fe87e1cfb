"""Shared-memory arena backing the multi-process sharded engine.

One :class:`multiprocessing.shared_memory.SharedMemory` block carries
the arrays the parties of a parallel run write (§4.2's pass simulation
run across OS processes): the rank vector, the publisher flags of the
latest pass and the per-shard statistics matrix.  The graph and everything derived from it reach the workers
once, as a process argument, not through the arena.  The layout is a
flat list of named array specs with 8-byte-aligned offsets computed up
front; parent and workers map numpy views over the same bytes, and the
syncs of the one pass loop every party runs guarantee no view is
written while another party reads it (docs/PERFORMANCE.md "Sharded
execution model").
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["SharedArena", "plan_layout"]

#: (name, dtype string, shape) triple describing one shared array.
ArraySpec = Tuple[str, str, Tuple[int, ...]]

#: (name, dtype string, shape, byte offset) — a placed array.
PlacedSpec = Tuple[str, str, Tuple[int, ...], int]


def plan_layout(
    specs: Sequence[ArraySpec],
) -> Tuple[List[PlacedSpec], int]:
    """Assign 8-byte-aligned offsets to ``specs``; returns the placed
    specs plus the total byte size of the block."""
    placed: List[PlacedSpec] = []
    offset = 0
    for name, dtype, shape in specs:
        nbytes = int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))
        offset = (offset + 7) & ~7
        placed.append((name, dtype, tuple(int(d) for d in shape), offset))
        offset += nbytes
    return placed, max(offset, 1)


class SharedArena:
    """Named numpy views over one shared-memory block.

    The parent :meth:`create`\\ s the arena (and later
    :meth:`unlink`\\ s it); workers :meth:`attach` by name.  Attaching
    unregisters the segment from the per-process ``resource_tracker``
    so only the creating process cleans it up — without this, every
    worker's tracker would try to unlink the same segment at exit.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        layout: List[PlacedSpec],
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._layout = layout
        self._owner = owner
        self._views: Dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in layout:
            self._views[name] = np.ndarray(
                shape, dtype=dtype, buffer=shm.buf, offset=offset
            )

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, specs: Sequence[ArraySpec]) -> "SharedArena":
        """Allocate a fresh block sized for ``specs`` (parent side)."""
        layout, total = plan_layout(specs)
        shm = shared_memory.SharedMemory(create=True, size=total)
        return cls(shm, layout, owner=True)

    @classmethod
    def attach(
        cls, name: str, layout: List[PlacedSpec], *, untrack: bool = False
    ) -> "SharedArena":
        """Map an existing block by name (worker side).

        ``untrack`` withdraws the attach-time ``resource_tracker``
        registration.  Required under the ``spawn`` start method, where
        each worker runs its own tracker that would otherwise unlink
        the still-live segment at worker exit; must stay off under
        ``fork``, where workers share the parent's tracker and an
        unregister would cancel the parent's own registration.
        """
        shm = shared_memory.SharedMemory(name=name)
        if untrack:
            try:  # pragma: no cover - tracker internals vary per version
                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass
        return cls(shm, layout, owner=False)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The block's system-wide name (what workers attach by)."""
        return self._shm.name

    @property
    def layout(self) -> List[PlacedSpec]:
        """The placed specs (picklable; shipped to workers)."""
        return self._layout

    def view(self, name: str) -> np.ndarray:
        """The numpy view registered under ``name``."""
        return self._views[name]

    def views(self) -> Dict[str, np.ndarray]:
        """All views by name (shared dict; do not mutate)."""
        return self._views

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the views and unmap the block (every process)."""
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external views
            pass

    def unlink(self) -> None:
        """Free the block system-wide (creating process only)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
