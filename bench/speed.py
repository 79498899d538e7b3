"""Machine-speed probe: measures a time in units of a fixed probe kernel.

On a shared VM the vCPU that runs the study switches, every few seconds,
between a fast state and a slow one (about 1.8x slower) as other tenants
load the host. CPU time tracks wall time in both states, so the program does
the same work, only slower. A study of 10-20 s averages over however many
slow phases happen to fall in it, which spreads its wall time by 50% and
more between runs.

``SpeedProbe`` runs a fixed pure-Python kernel every ``period_s`` in a
thread of the benchmark process, on the one CPU that the benchmark and its
workers are pinned to. Each probe therefore times the CPU the study is
using at that moment. ``scaled`` divides a wall time by the mean probe
duration over its window and multiplies by ``REFERENCE_S``: the time the
work would take on a machine where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import threading
import time

# the probe's duration in the fast state of the 2-vCPU Xeon VM this was
# written on (0.19-0.25 ms), so scaled times read about as wall times there
REFERENCE_S = 0.2e-3


def kernel() -> int:
    """The fixed probe work: dict updates, as in interpreter-bound code."""
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return len(counts)


def scaled(wall_s: float, window: list[float]) -> float:
    """A wall time over the mean probe duration of its window, x REFERENCE_S."""
    return wall_s * REFERENCE_S / statistics.fmean(window)


class SpeedProbe:
    """Probes the CPU in a background thread: (monotonic_ns, duration_s) samples."""

    def __init__(self, period_s: float = 0.02):
        self.period_s = period_s
        self.samples: list[tuple[int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.wait(self.period_s):
            start = time.perf_counter()
            kernel()
            self.samples.append((time.monotonic_ns(), time.perf_counter() - start))

    def window(self, start_ns: int, wall_s: float) -> list[float]:
        """Probe durations within [start, start + wall_s], or the one nearest it."""
        end_ns = start_ns + int(wall_s * 1e9)
        inside = [d for t, d in self.samples if start_ns <= t <= end_ns]
        mid = (start_ns + end_ns) // 2
        return inside or [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
