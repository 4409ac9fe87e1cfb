"""Host-speed probe: time a fixed reference workload while the program runs.

On a shared host the same code runs up to twice as slow for seconds at
a time, when neighbours load the cores and caches.  CPU time slows as
much as wall time, so no clock removes it, and the fastest of a few
repeats does not either.  So the benchmark samples the host's speed
while it times the program: a small fixed piece of work — object and
dict churn in pure Python, and a gather/scatter pull over a fixed
random graph in numpy — runs right before and right after each timed
region and, from a ``SIGALRM`` timer, every :data:`INTERVAL_S` seconds
within it.

A sample's *pace* is the mean of its two parts' times, each as a
multiple of that part's time on a quiet host: 1.0 there, 2.0 at half
speed.  A workload does not slow down exactly as much as the probe, so
its *slowdown* at pace ``p`` is ``1 + sensitivity * (p - 1)``, with the
sensitivity fitted per workload.  A region's scaled time is its wall
time, less the samples taken inside it, times the mean of
``1 / slowdown`` over its samples: the time it would have taken on the
quiet host.

The probe is the benchmark's own code and never calls the program, so
a change to the program cannot move it.  It draws from its own seeded
generator and touches no state of the program, so results stay
byte-identical with it on.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

import numpy as np

__all__ = ["INTERVAL_S", "QUIET_S", "Probe"]

#: Seconds between samples inside a timed region.
INTERVAL_S = 0.2
#: Seconds the Python and the numpy part of one sample take on a quiet
#: host: 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6.
QUIET_S = (0.0053, 0.0038)

_NODES = 100_000
_EDGES = 600_000
_MESSAGES = 12_000


class _Update:
    __slots__ = ("src", "dst", "value", "version")

    def __init__(self, src: int, dst: int, value: float, version: int) -> None:
        self.src = src
        self.dst = dst
        self.value = value
        self.version = version


class Probe:
    """The fixed reference workload, and the regions it scales.

    With ``interval_s=0`` a region is sampled only at its edges; traced
    runs use that, so no sample lands inside a layer's span.
    """

    def __init__(self, sensitivity: float, interval_s: float = INTERVAL_S) -> None:
        self.sensitivity = sensitivity
        self.interval_s = interval_s
        rng = np.random.default_rng(12345)
        self._src = rng.integers(0, _NODES, _EDGES)
        self._dst = np.sort(rng.integers(0, _NODES, _EDGES))
        self._weight = rng.random(_EDGES)
        self._values = np.full(_NODES, 1.0 / _NODES)
        self._pairs = [
            (int(s) % 997, int(d)) for s, d in zip(self._src[:_MESSAGES], self._dst[:_MESSAGES])
        ]
        #: ``(python, numpy)`` pace of every sample taken so far.
        self.paces: List[Tuple[float, float]] = []
        self._region: List[float] = []
        self._inside_s = 0.0
        for _ in range(3):  # warm-up
            self._sample()
        self.paces.clear()

    def _python(self) -> int:
        # Stage updates as objects, keep the newest per document, apply
        # the ones that moved far enough: the shape of the message path.
        latest = {}
        applied = 0
        for version, (src, dst) in enumerate(self._pairs):
            update = _Update(src, dst, (src * 31 + dst) % 1009 / 1009.0, version)
            prev = latest.get(update.dst)
            if prev is None or abs(prev.value - update.value) > 1e-3:
                latest[update.dst] = update
                applied += 1
        return applied

    def _numpy(self) -> None:
        contrib = self._values[self._src] * self._weight
        out = np.bincount(self._dst, weights=contrib, minlength=_NODES)
        self._values = 0.15 / _NODES + 0.85 * out / out.sum()

    def _sample(self) -> float:
        t0 = time.perf_counter()
        self._python()
        t1 = time.perf_counter()
        self._numpy()
        t2 = time.perf_counter()
        parts = ((t1 - t0) / QUIET_S[0], (t2 - t1) / QUIET_S[1])
        self.paces.append(parts)
        self._region.append(1.0 + self.sensitivity * (sum(parts) / 2 - 1.0))
        return t2 - t0

    def _on_alarm(self, signum, frame) -> None:
        self._inside_s += self._sample()

    @contextmanager
    def region(self, out: List[Tuple[float, float]]) -> Iterator[None]:
        """Time the ``with`` body; appends ``(wall_s, scaled_s)`` to ``out``."""
        self._region = []
        self._inside_s = 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        if self.interval_s > 0:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = time.perf_counter() - t0 - self._inside_s
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        out.append((wall, wall * statistics.fmean(1.0 / s for s in self._region)))
