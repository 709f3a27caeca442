"""Plain per-candidate projection search, the reference for `projection.iss`.

Every candidate is refined by its own call, one block sum and one run split
at a time, and the refined candidates keep the order of their parents, then
of their runs. The batched search must give the same candidates in that pass
order, iteration count, op counts and cells sensed per pass, here summed one
candidate at a time.
"""

from __future__ import annotations

import numpy as np

from conftest import box_array
from cramsim.grid import BinaryFrame
from cramsim.projection import Box, IssResult, ProjectionConfig, RpConfig, line_trips
from cramsim.timing import FULL_AXIS_PROJECTION, REGION_PROJECTION, CycleTrace


def runs_from_bits(bits) -> list[tuple[int, int]]:
    """Maximal runs of consecutive 1 bits as inclusive (start, end) intervals."""
    b = np.asarray(bits, dtype=np.int8)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], b, [0]))))
    starts, ends = edges[::2], edges[1::2] - 1
    return list(zip(starts.tolist(), ends.tolist()))


def refine(pixels: np.ndarray, cand: Box, axis: str, cfg: ProjectionConfig) -> list[Box]:
    """Project one candidate onto `axis`, masked by its extent on the other axis.

    Only lines inside the candidate's current extent on the projected axis are
    sensed; each detected run replaces that extent, so multiple runs split the
    candidate.
    """
    block = pixels[cand.r0:cand.r1 + 1, cand.c0:cand.c1 + 1]
    if axis == "cols":
        counts = block.sum(axis=0)
    else:
        counts = block.sum(axis=1)
    bits = line_trips(counts, cfg)
    out = []
    for lo, hi in runs_from_bits(bits):
        if axis == "cols":
            out.append(Box(cand.r0, cand.r1, cand.c0 + lo, cand.c0 + hi))
        else:
            out.append(Box(cand.r0 + lo, cand.r0 + hi, cand.c0, cand.c1))
    return out


def reference_iss(frame: BinaryFrame, cfg: RpConfig) -> IssResult:
    """The alternating-projection search, one candidate at a time."""
    pcfg = cfg.projection
    regions = 0
    cells: list[int] = []

    cells.append(frame.width * frame.height)
    row_bits = line_trips(frame.pixels.sum(axis=1), pcfg)
    candidates = [Box(lo, hi, 0, frame.width - 1) for lo, hi in runs_from_bits(row_bits)]
    iterations = 1
    prev_count = len(candidates)

    while candidates and iterations < cfg.max_iters:
        axis = "cols" if iterations % 2 == 1 else "rows"
        iterations += 1
        refined: list[Box] = []
        sensed = 0
        for cand in candidates:
            regions += 1
            sensed += cand.area
            refined.extend(refine(frame.pixels, cand, axis, pcfg))
        cells.append(sensed)
        candidates = refined
        if len(candidates) == prev_count:
            break
        prev_count = len(candidates)

    trace = CycleTrace({FULL_AXIS_PROJECTION: 1, REGION_PROJECTION: regions})
    return IssResult(box_array(candidates), iterations, trace, cells)
