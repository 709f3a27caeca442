"""Host-speed probe: a fixed calibration kernel timed between workload calls.

On a shared VM the CPU speed this benchmark gets drifts by up to 1.6x over
seconds to minutes, whole runs at a time, whatever the run length.  So the
loop times this kernel in short bursts between calls, and each host time
it reports is scaled by ``REF_KERNEL_MS / <kernel time of the latest
burst>``: milliseconds on a host where the kernel takes ``REF_KERNEL_MS``.
The kernel imports nothing from the package and runs with the garbage
collector off, so a change to cramsim's code does not change the kernel's
work; only a change that slows the whole interpreter, such as a busy
background thread, would slow it too.  The unscaled times are kept in
each run's record.

The kernel has the two kinds of work the workloads do: a pure-Python
labelling of a small binary grid (like ``oracle.ccl`` and the search) and
a numpy stencil substep on a 320x240 frame (like diffusion).
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import deque

import numpy as np

# The kernel's median time on the 2-vCPU VM of the README baseline.  It only
# sets the scale: any fixed value gives the same comparisons between runs.
REF_KERNEL_MS = 3.0
EVERY_S = 0.5  # time between bursts
BURST_S = 0.04  # length of one burst
MIN_REPEATS = 5  # kernel runs per burst, however slow the host

_rng = random.Random(7)
_GRID = [[_rng.random() < 0.45 for _ in range(40)] for _ in range(40)]
_FIELD = np.random.default_rng(7).random((242, 322))


def _label() -> list[tuple[int, int, int, int]]:
    """Bounding boxes of the 4-connected components of ``_GRID``."""
    h, w = len(_GRID), len(_GRID[0])
    seen = [[False] * w for _ in range(h)]
    boxes = []
    for r in range(h):
        for c in range(w):
            if not _GRID[r][c] or seen[r][c]:
                continue
            seen[r][c] = True
            queue = deque([(r, c)])
            r0 = r1 = r
            c0 = c1 = c
            while queue:
                y, x = queue.popleft()
                r0, r1, c0, c1 = min(r0, y), max(r1, y), min(c0, x), max(c1, x)
                for yy, xx in ((y + 1, x), (y - 1, x), (y, x + 1), (y, x - 1)):
                    if 0 <= yy < h and 0 <= xx < w and _GRID[yy][xx] and not seen[yy][xx]:
                        seen[yy][xx] = True
                        queue.append((yy, xx))
            boxes.append((r0, c0, r1, c1))
    return sorted(boxes)


def _diffuse() -> np.ndarray:
    u = _FIELD.copy()
    inner = u[1:-1, 1:-1]
    inner += 0.2 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4 * inner)
    return u


def burst() -> float:
    """Median seconds of one kernel run over a burst of ``BURST_S``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        end = time.perf_counter() + BURST_S
        while True:
            t0 = time.perf_counter()
            _label()
            _diffuse()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            if t1 >= end and len(times) >= MIN_REPEATS:
                return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def scale(kernel_s: float) -> float:
    """Factor that turns a host time, taken next to a burst whose median was
    ``kernel_s``, into the time on a host where the kernel takes ``REF_KERNEL_MS``."""
    return REF_KERNEL_MS / 1e3 / kernel_s
