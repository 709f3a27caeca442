"""Plain Box-list consolidation, the reference for `projection.rp_update`.

It filters and merges Box objects one pair at a time. The array version
must return the same boxes for any input.
"""

from __future__ import annotations

from typing import Sequence

from cramsim.projection import Box, RpConfig


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
                if a.row_gap(b) < cfg.slot_r and a.col_gap(b) < cfg.slot_c:
                    boxes[i] = a.union(b)
                    del boxes[j]
                    boxes.sort(key=_sort_key)
                    merged = True
                    break
            if merged:
                break
    return boxes
