"""Plain Box-list consolidation, the reference for `projection.rp_update`.

It filters and merges Box objects one pair at a time. The array version
must return the same boxes for any input. The gap and union helpers it
merges with serve the tests' own checks on merged and generated boxes.
"""

from __future__ import annotations

from typing import Sequence

from cramsim.projection import Box, RpConfig


def union(a: Box, b: Box) -> Box:
    """The smallest box that holds both."""
    return Box(min(a.r0, b.r0), max(a.r1, b.r1), min(a.c0, b.c0), max(a.c1, b.c1))


def _interval_gap(a0: int, a1: int, b0: int, b1: int) -> int:
    # number of free lines strictly between the intervals; overlap -> 0
    if b0 > a1:
        return b0 - a1 - 1
    if a0 > b1:
        return a0 - b1 - 1
    return 0


def row_gap(a: Box, b: Box) -> int:
    """Free rows strictly between the boxes' row spans; 0 if they overlap or touch."""
    return _interval_gap(a.r0, a.r1, b.r0, b.r1)


def col_gap(a: Box, b: Box) -> int:
    """Free columns strictly between the boxes' column spans; 0 if they overlap or touch."""
    return _interval_gap(a.c0, a.c1, b.c0, b.c1)


def _sort_key(box: Box) -> tuple[int, int, int, int]:
    return (box.r0, box.c0, box.r1, box.c1)


def _box_size(box: Box, metric: str) -> int:
    if metric == "max_side":
        return max(box.height, box.width)
    return box.area


def reference_rp_update(new_boxes: Sequence[Box], cfg: RpConfig) -> list[Box]:
    """Size-filter the boxes, then merge near pairs until none is left to merge."""
    boxes = sorted(
        (b for b in new_boxes if _box_size(b, cfg.size_metric) >= cfg.size_min),
        key=_sort_key,
    )
    merged = True
    while merged:
        merged = False
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                a, b = boxes[i], boxes[j]
                if row_gap(a, b) < cfg.slot_r and col_gap(a, b) < cfg.slot_c:
                    boxes[i] = union(a, b)
                    del boxes[j]
                    boxes.sort(key=_sort_key)
                    merged = True
                    break
            if merged:
                break
    return boxes
