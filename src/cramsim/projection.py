"""Line projection, the iterative region-proposal search, and box consolidation.

Projection mode reads a whole line at once: every enabled cell storing 1
charges its projection line, and a per-line detector compares the line
voltage against a DAC-programmed reference. The search alternates row and
column projections, refining each candidate box on the projected axis and
splitting it when the projection detects multiple runs, until the object
count stops changing. A consolidation pass then drops undersized boxes and
merges boxes whose row and column gaps are both under the slot thresholds,
which stitches fragmented objects back together. Candidates stay an (n, 4)
array through the search and the size filter; Box objects are built only
for the boxes that survive it, and for the raw search result on demand.

The search runs in the compiled kernel (`_kernel.c`, loaded by `_ckernel`)
in one call per frame, outside the GIL, when this host can build it; the
batched numpy passes of `_numpy_search` are the fallback, with the same
results. `tests/iss_reference.py` holds both to a per-candidate loop.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from . import _ckernel
from .errors import ConfigError, InputError
from .grid import BinaryFrame
from .timing import (
    CONTROLLER_FIXED,
    CONTROLLER_OBJECT,
    FULL_AXIS_PROJECTION,
    REGION_PROJECTION,
    CycleTrace,
)

DAC_BITS = 4
DAC_MAX = 2**DAC_BITS - 1


@dataclass(frozen=True)
class ProjectionConfig:
    """Line-detector knobs: 4-bit DAC reference and charge saturation constant."""

    dac_code: int = 7
    line_charge_constant: float = 0.7

    def __post_init__(self):
        if not 0 <= self.dac_code <= DAC_MAX:
            raise ConfigError(f"dac_code must be in [0, {DAC_MAX}], got {self.dac_code}")
        lam = self.line_charge_constant
        if not 0.0 < lam < math.inf:
            raise ConfigError(f"line_charge_constant must be finite and > 0, got {lam}")

    @property
    def vref(self) -> float:
        return self.dac_code / DAC_MAX


@dataclass(frozen=True)
class Box:
    """Inclusive rectangular extent: rows r0..r1, columns c0..c1."""

    r0: int
    r1: int
    c0: int
    c1: int

    def __post_init__(self):
        if not (0 <= self.r0 <= self.r1 and 0 <= self.c0 <= self.c1):
            raise ValueError(f"invalid box extents {self}")

    @property
    def height(self) -> int:
        return self.r1 - self.r0 + 1

    @property
    def width(self) -> int:
        return self.c1 - self.c0 + 1

    @property
    def area(self) -> int:
        return self.height * self.width

    def union(self, other: "Box") -> "Box":
        return Box(
            min(self.r0, other.r0),
            max(self.r1, other.r1),
            min(self.c0, other.c0),
            max(self.c1, other.c1),
        )

    def row_gap(self, other: "Box") -> int:
        return _interval_gap(self.r0, self.r1, other.r0, other.r1)

    def col_gap(self, other: "Box") -> int:
        return _interval_gap(self.c0, self.c1, other.c0, other.c1)

    @classmethod
    def from_json_obj(cls, obj: dict[str, int]) -> "Box":
        """Box from its JSON object; a malformed object raises InputError."""
        keys = ("x0", "y0", "x1", "y1")
        if not isinstance(obj, dict) or any(type(obj.get(k)) is not int for k in keys):
            raise InputError(f"a box needs integer x0, y0, x1, y1, got {json.dumps(obj)}")
        try:
            return cls(r0=obj["y0"], r1=obj["y1"], c0=obj["x0"], c1=obj["x1"])
        except ValueError:
            raise InputError(
                f"box {json.dumps(obj)} needs 0 <= x0 <= x1 and 0 <= y0 <= y1") from None


def _interval_gap(a0: int, a1: int, b0: int, b1: int) -> int:
    # number of free lines strictly between the intervals; overlap -> 0
    if b0 > a1:
        return b0 - a1 - 1
    if a0 > b1:
        return a0 - b1 - 1
    return 0


def _sort_key(box: Box) -> tuple[int, int, int, int]:
    return (box.r0, box.c0, box.r1, box.c1)


@dataclass(frozen=True)
class RpConfig:
    """Region-proposal thresholds: noise size floor, merge slots, iteration cap."""

    size_min: int = 4
    slot_r: int = 4
    slot_c: int = 4
    max_iters: int = 16
    size_metric: Literal["area", "max_side"] = "area"
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)

    def __post_init__(self):
        if self.size_min < 0:
            raise ConfigError("size_min must be >= 0")
        if self.slot_r < 0 or self.slot_c < 0:
            raise ConfigError("slot thresholds must be >= 0")
        if self.max_iters < 2:
            raise ConfigError("max_iters must be >= 2")
        if self.size_metric not in ("area", "max_side"):
            raise ConfigError(f"unknown size_metric {self.size_metric!r}")


def line_trips(n_ones: int | np.ndarray, cfg: ProjectionConfig) -> np.bool_ | np.ndarray:
    """Detector output of lines charged by n_ones enabled 1-cells each.

    A line's voltage saturates as 1 - e^(-n/lambda): zero enabled 1s leave
    it floating at zero, and it grows monotonically with the count towards
    VDD = 1. The detector trips iff the voltage strictly exceeds vref.
    n_ones may be one count or an array of counts; the result has its shape.
    """
    volts = 1.0 - np.exp(-np.asarray(n_ones, dtype=np.float64) / cfg.line_charge_constant)
    return volts > cfg.vref


@dataclass
class IssResult:
    """The search's final candidates, one row [r0, r1, c0, c1] each, sorted by
    (r0, c0, r1, c1), with its iteration count, trace and the cells each pass
    sensed: projection_cells[0] is the full-axis projection, every later entry
    the summed area of the candidates that pass projected."""

    candidates: np.ndarray
    iterations: int
    trace: CycleTrace
    projection_cells: list[int] = field(default_factory=list)

    @property
    def boxes(self) -> list[Box]:
        """The candidates as Box objects, built on each read."""
        return [Box(*row) for row in self.candidates.tolist()]


@functools.lru_cache(maxsize=16)
def _trip_table(cfg: ProjectionConfig, longest: int) -> np.ndarray:
    """Read-only line_trips output for every count from 0 to longest."""
    table = line_trips(np.arange(longest + 1), cfg)
    table.flags.writeable = False
    return table


def _project(
    cand: np.ndarray, points: np.ndarray, owner: np.ndarray, a: int, trips: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched pass: project every candidate onto one axis, split on its runs.

    cand holds one row [r0, r1, c0, c1] per candidate; a is 0 to project onto
    rows and 2 onto columns. points holds the row (points[0]) and column
    (points[1]) of each set pixel inside a candidate, owner the candidate it
    lies in, and trips[n] the detector output of a line with n enabled 1s.
    The lines of all candidates are numbered one after another, each
    candidate's after one clear gap line, so one bincount gives every line's
    count and no run crosses from one candidate into the next. Each run of
    tripped lines becomes a candidate with the run as its extent on the
    projected axis. The result keeps candidate order, then line order, with
    the set pixels inside it and their new owners.
    """
    stop = cand[:, a + 1] + 1
    block_end = (stop - cand[:, a] + 1).cumsum()  # one past each candidate's last line
    shift = block_end - stop  # line number = shift[owner] + coordinate
    line = shift[owner]
    line += points[a // 2]
    # one more gap line after the last candidate closes its last run
    counts = np.bincount(line, minlength=int(block_end[-1]) + 1)
    bits = trips[counts]
    flips = bits.copy()  # flips[j]: bits[j] differs from bits[j - 1]
    flips[1:] ^= bits[:-1]
    edges = flips.nonzero()[0]  # runs start at edges[0::2] and stop before edges[1::2]
    starts, stops = edges[::2], edges[1::2]
    parent = block_end.searchsorted(starts, "right")
    offset = shift[parent]
    refined = cand[parent]
    refined[:, a] = starts - offset
    refined[:, a + 1] = stops - offset - 1
    owner = (flips.cumsum() >> 1)[line]  # the run of each tripped line
    # Detection is monotone in the count, so when one enabled 1 trips a line
    # every set pixel lies on a tripped line and stays inside a candidate.
    if not trips[1] and counts[bits].sum() < len(line):
        inside = bits[line]
        points, owner = points.compress(inside, axis=1), owner.compress(inside)
    return refined, points, owner


def iss(frame: BinaryFrame, cfg: RpConfig) -> IssResult:
    """Alternating-projection region search.

    Iteration 1 projects every row with the full column mask; each detected
    row run opens a candidate spanning all columns. Every later iteration
    alternates axis and re-projects each candidate within its own extents:
    only lines inside the candidate's extent on the projected axis are
    sensed, masked by its extent on the other axis, and each detected run
    replaces that extent, so multiple runs split the candidate. The search
    stops once the candidate count matches the previous iteration's count
    (a row and a column pass have then both completed), when no candidates
    remain, or at the max_iters cap.

    The compiled kernel (`_ckernel`) runs the whole search in one
    call, outside the GIL, when this host can build it; otherwise
    :func:`_numpy_search` runs it, one batched numpy pass per iteration.
    Both count only the set pixels still inside a candidate and give the
    same candidates, in the same order.
    """
    pixels = frame.pixels
    trips = _trip_table(cfg.projection, max(pixels.shape))
    candidates, iterations, regions, cells = (_compiled_search(pixels, trips, cfg.max_iters)
                                              or _numpy_search(pixels, trips, cfg.max_iters))
    trace = CycleTrace({FULL_AXIS_PROJECTION: 1, REGION_PROJECTION: regions})
    return IssResult(candidates, iterations, trace, cells)


def _compiled_search(pixels: np.ndarray, trips: np.ndarray, max_iters: int):
    """The search in one compiled call, or None without the kernel or if it declined the frame.

    Returns (sorted candidates, iterations, region projections, cells per
    pass). The kernel keeps the set pixels in work, one row each, and then
    writes its candidates there: candidates are disjoint and each holds a
    set pixel, so there are never more of them than rows.

    max_iters is clamped to 2 * capacity + 2, which sizes info, fits a C long
    and never changes the result: every candidate holds a set pixel, and a
    pass that does not stop the search changes the candidate count, so
    2 * (points kept) - (candidates) stays >= 0 and drops on every such pass.
    """
    kernels = _ckernel.kernels()
    if kernels is None:
        return None
    capacity = np.count_nonzero(pixels)
    max_iters = min(max_iters, 2 * capacity + 2)
    work = np.empty((capacity, 4), np.int32)
    info = np.empty(max_iters + 2, np.int64)
    n = kernels.search(pixels.ctypes.data, *pixels.shape, trips.ctypes.data, max_iters, capacity,
                       work.ctypes.data, info.ctypes.data)
    if n < 0:
        return None
    iterations, regions = info[:2].tolist()
    return work[:n].astype(np.int64), iterations, regions, info[2:2 + iterations].tolist()


def _numpy_search(pixels: np.ndarray, trips: np.ndarray, max_iters: int):
    """The search as one batched :func:`_project` pass per iteration.

    Returns (sorted candidates, iterations, region projections, cells per
    pass). Candidates stay an (n, 4) array [r0, r1, c0, c1] throughout.
    """
    height, width = pixels.shape
    points = np.array(np.divmod(np.flatnonzero(pixels), width))
    whole = np.array([[0, height - 1, 0, width - 1]])
    candidates, points, owner = _project(
        whole, points, np.zeros_like(points[0]), 0, trips)
    passes = [whole]  # the candidates each projection sensed
    iterations = 1
    prev_count = len(candidates)

    while len(candidates) and iterations < max_iters:
        a = 2 if iterations % 2 == 1 else 0
        iterations += 1
        passes.append(candidates)
        candidates, points, owner = _project(candidates, points, owner, a, trips)
        if len(candidates) == prev_count:
            break
        prev_count = len(candidates)

    cells = [int((p[:, 1] - p[:, 0] + 1) @ (p[:, 3] - p[:, 2] + 1)) for p in passes]
    # disjoint candidates never share a top-left corner, so sorting by
    # (r0, c0) alone sorts them by (r0, c0, r1, c1)
    order = np.argsort(candidates[:, 0] * width + candidates[:, 2])
    # passes[0] is the full-axis projection; a later pass makes one region
    # projection per candidate
    return candidates[order], iterations, sum(map(len, passes)) - 1, cells


def rp_update(new_boxes: np.ndarray, cfg: RpConfig) -> list[Box]:
    """Consolidate proposals: size-filter, then merge near boxes to a fixpoint.

    new_boxes holds one row [r0, r1, c0, c1] per proposal; boxes under size_min
    are dropped as noise. Boxes are near when the row gap is under slot_r AND
    the column gap under slot_c (strict; overlap gaps 0). Each box absorbs every
    near box of the merged list, checks again, and joins it once none is near.
    Merging only grows boxes and shrinks gaps, so the fixpoint is unique.
    """
    sides = new_boxes[:, 1::2] - new_boxes[:, ::2] + 1  # heights, widths
    size = sides.max(axis=1) if cfg.size_metric == "max_side" else sides.prod(axis=1)
    merged: list[Box] = []
    for box in (Box(*row) for row in new_boxes[size >= cfg.size_min].tolist()):
        while near := [b for b in merged
                       if box.row_gap(b) < cfg.slot_r and box.col_gap(b) < cfg.slot_c]:
            for b in near:
                box = box.union(b)
                merged.remove(b)
        merged.append(box)
    return sorted(merged, key=_sort_key)


@dataclass
class ProposeResult:
    """Consolidated boxes, the full trace, and the search they came from."""

    boxes: list[Box]
    trace: CycleTrace
    search: IssResult


def region_propose(frame: BinaryFrame, cfg: RpConfig) -> ProposeResult:
    """Projection-phase search followed by the controller consolidation pass.

    The returned trace holds the search's op counts plus the controller's:
    one controller op per proposal handed to consolidation and one fixed
    overhead op.
    """
    found = iss(frame, cfg)
    boxes = rp_update(found.candidates, cfg)
    trace = CycleTrace({**found.trace.counts,
                        CONTROLLER_OBJECT: len(found.candidates), CONTROLLER_FIXED: 1})
    return ProposeResult(boxes, trace, found)


def boxes_to_json(boxes: Sequence[Box]) -> str:
    """Boxes sorted by (y0, x0) as a JSON array of x/y extents, in indent=2 layout."""
    body = ",\n".join(f'  {{\n    "x0": {b.c0},\n    "y0": {b.r0},\n'
                      f'    "x1": {b.c1},\n    "y1": {b.r1}\n  }}'
                      for b in sorted(boxes, key=_sort_key))
    return f"[\n{body}\n]\n" if body else "[]\n"


def boxes_from_json(text: str) -> list[Box]:
    """Parse a JSON array of x/y extents; malformed text raises InputError."""
    try:
        objs = json.loads(text)
    except ValueError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(objs, list):
        raise InputError("boxes JSON must be an array")
    return [Box.from_json_obj(obj) for obj in objs]
