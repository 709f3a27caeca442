"""Line projection, the iterative region-proposal search, and box consolidation.

Projection mode reads a whole line at once: every enabled cell storing 1
charges its projection line, and a per-line detector compares the line
voltage against a DAC-programmed reference. The search alternates row and
column projections, refining each candidate box on the projected axis and
splitting it when the projection detects multiple runs, until the object
count stops changing. A consolidation pass then drops undersized boxes and
merges boxes whose row and column gaps are both under the slot thresholds,
which stitches fragmented objects back together. Candidates stay an (n, 4)
array through the search and the size filter, and plain int tuples (Rows)
through the merge and matching; Box objects are built only on read, by
ProposeResult.boxes and IssResult.boxes.

The search runs in the compiled kernel (`_kernel.c`, loaded by `_ckernel`)
in one call per frame, outside the GIL, when this host can build it; the
batched numpy passes of `_numpy_search` are the fallback, with the same
results. `tests/iss_reference.py` holds both to a per-candidate loop. A
frame that `EvalPipeline.propose` restores is searched in the restore's own
compiled call (`diffusion.restore_image` with a search config), over the
restored bits where the restore left them; the helpers that size, read and
wrap the kernel's buffers here serve both calls.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

from . import _ckernel
from .errors import ConfigError, InputError
from .grid import MAX_DIM, BinaryFrame
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


def _sort_key(box: Box) -> tuple[int, int, int, int]:
    return (box.r0, box.c0, box.r1, box.c1)


Row = tuple[int, int, int, int]  # a box as plain ints: (r0, r1, c0, c1)
_tuple_sort_key = operator.itemgetter(0, 2, 1, 3)  # _sort_key of a Row


def _sorted_rows(rows: Iterable[Sequence[int]]) -> list[Row]:
    """The rows as tuples sorted by (r0, c0, r1, c1), the order _sort_key gives their Boxes."""
    return sorted(map(tuple, rows), key=_tuple_sort_key)


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
    """The search's final candidates, one row [r0, r1, c0, c1] each in pass
    order (candidate order, then line order, as the last pass made them),
    with its iteration count, trace and the cells each pass sensed:
    projection_cells[0] is the full-axis projection, every later entry the
    summed area of the candidates that pass projected."""

    candidates: np.ndarray
    iterations: int
    trace: CycleTrace
    projection_cells: list[int] = field(default_factory=list)

    @property
    def boxes(self) -> list[Box]:
        """The candidates as Box objects sorted by (r0, c0, r1, c1), built on each read."""
        return [Box(*row) for row in _sorted_rows(self.candidates.tolist())]


@functools.lru_cache(maxsize=16)
def _fewest_to_trip(cfg: ProjectionConfig) -> int:
    """The fewest enabled 1s that trip a line, at least 1; MAX_DIM + 1 if none of 0..MAX_DIM
    does. Detection is monotone in the count, so a line of at most MAX_DIM cells trips iff
    it holds at least this many."""
    trips = line_trips(np.arange(MAX_DIM + 1), cfg)
    return int(trips.argmax()) if trips.any() else MAX_DIM + 1


def _project(
    cand: np.ndarray, points: np.ndarray, owner: np.ndarray, a: int, fewest: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched pass: project every candidate onto one axis, split on its runs.

    cand holds one row [r0, r1, c0, c1] per candidate; a is 0 to project onto
    rows and 2 onto columns. points holds the row (points[0]) and column
    (points[1]) of each set pixel inside a candidate, owner the candidate it
    lies in, and a line trips iff it holds at least fewest enabled 1s.
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
    bits = counts >= fewest
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
    # When one enabled 1 trips a line, every set pixel lies on a tripped line
    # and stays inside a candidate.
    if fewest > 1 and counts[bits].sum() < len(line):
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
    stops on a pass after the first that keeps its candidate count (a row
    and a column pass have then both completed), when no candidates remain,
    or at the max_iters cap.

    The compiled kernel (`_ckernel`) runs the whole search in one
    call, outside the GIL, when this host can build it; otherwise
    :func:`_numpy_search` runs it, one batched numpy pass per iteration.
    Both count only the set pixels still inside a candidate and give the
    same candidates, in pass order. A side over MAX_DIM raises InputError.
    """
    _check_searchable(frame)
    pixels = frame.pixels
    fewest = _fewest_to_trip(cfg.projection)
    return (_compiled_search(pixels, fewest, cfg.max_iters)
            or _iss_result(*_numpy_search(pixels, fewest, cfg.max_iters)))


def _check_searchable(frame: BinaryFrame) -> None:
    """Raise InputError for a frame with a side over MAX_DIM, longer than any line the
    detector model (_fewest_to_trip) covers."""
    if max(frame.pixels.shape) > MAX_DIM:
        raise InputError(f"frame {frame.width}x{frame.height} exceeds {MAX_DIM}x{MAX_DIM}")


def _iss_result(candidates: np.ndarray, iterations: int, regions: int,
                cells: list[int]) -> IssResult:
    """A search's result, with regions the region projections it made."""
    trace = CycleTrace({FULL_AXIS_PROJECTION: 1, REGION_PROJECTION: regions})
    return IssResult(candidates, iterations, trace, cells)


def _iteration_cap(max_iters: int, capacity: int) -> int:
    """max_iters clamped to 2 * capacity + 2, for a compiled search with room for capacity
    set pixels. The cap sizes info, fits a C long and never changes the result: every
    candidate holds a set pixel, and a pass that does not stop the search changes the
    candidate count, so 2 * (points kept) - (candidates) stays >= 0 and drops on every
    such pass."""
    return min(max_iters, 2 * capacity + 2)


def _kernel_result(n: int, work: np.ndarray, info: np.ndarray) -> IssResult | None:
    """The result of a compiled search that returned n and left its candidates in work
    and its counts in info, or None if it declined. The candidates are copied out of
    work, which the caller may reuse."""
    if n < 0:
        return None
    iterations, regions = info[:2].tolist()
    return _iss_result(work[:n].astype(np.int64), iterations, regions,
                       info[2:2 + iterations].tolist())


def _compiled_search(pixels: np.ndarray, fewest: int, max_iters: int) -> IssResult | None:
    """The search in one compiled call, or None without the kernel or if it declined the frame.

    The kernel keeps the set pixels in work, one row each, and then writes
    its candidates there: candidates are disjoint and each holds a set
    pixel, so there are never more of them than rows.
    """
    kernels = _ckernel.kernels()
    if kernels is None:
        return None
    capacity = np.count_nonzero(pixels)
    max_iters = _iteration_cap(max_iters, capacity)
    work = np.empty((capacity, 4), np.int32)
    info = np.empty(max_iters + 2, np.int64)
    n = kernels.search(pixels.ctypes.data, *pixels.shape, fewest, max_iters, capacity,
                       work.ctypes.data, info.ctypes.data)
    return _kernel_result(n, work, info)


def _numpy_search(pixels: np.ndarray, fewest: int, max_iters: int):
    """The search as one batched :func:`_project` pass per iteration.

    Starting from the whole frame, the passes project onto rows, then
    columns, and so on, until no candidate is left, max_iters passes have
    run, or a pass after the first keeps its candidate count. Returns
    (candidates in pass order, iterations, region projections, cells per
    pass). Candidates stay an (n, 4) array [r0, r1, c0, c1] throughout.
    """
    height, width = pixels.shape
    points = np.array(np.divmod(np.flatnonzero(pixels), width))
    owner = np.zeros_like(points[0])
    candidates = np.array([[0, height - 1, 0, width - 1]])
    passes = []  # the candidates each pass projected
    while len(candidates) and len(passes) < max_iters:
        passes.append(candidates)
        a = 0 if len(passes) % 2 else 2  # rows first
        candidates, points, owner = _project(candidates, points, owner, a, fewest)
        if len(passes) > 1 and len(candidates) == len(passes[-1]):
            break

    cells = [int((p[:, 1] - p[:, 0] + 1) @ (p[:, 3] - p[:, 2] + 1)) for p in passes]
    # the whole frame's pass is the full-axis projection; every later pass
    # makes one region projection per candidate
    return candidates, len(passes), sum(map(len, passes)) - 1, cells


def rp_update(new_boxes: np.ndarray, cfg: RpConfig) -> list[Row]:
    """Consolidate proposals: size-filter, then merge near boxes to a fixpoint.

    new_boxes holds one row [r0, r1, c0, c1] per proposal; boxes under size_min
    are dropped as noise. Boxes are near when the row gap is under slot_r AND
    the column gap under slot_c (strict; overlap gaps 0), so a slot of 0
    merges nothing. Each box absorbs every near box of the merged list, checks
    again, and joins it once none is near. Merging only grows boxes and
    shrinks gaps, so the fixpoint is unique. The merge runs on plain int
    tuples, and returns them sorted by (r0, c0, r1, c1), as Rows: a Box is
    built only where one is read (ProposeResult.boxes).
    """
    heights = new_boxes[:, 1] - new_boxes[:, 0] + 1
    widths = new_boxes[:, 3] - new_boxes[:, 2] + 1
    size = np.maximum(heights, widths) if cfg.size_metric == "max_side" else heights * widths
    merged = new_boxes.compress(size >= cfg.size_min, axis=0).tolist()
    sr, sc = cfg.slot_r, cfg.slot_c
    if sr and sc:  # a gap is never negative, so a zero slot makes no pair near
        kept, merged = merged, []
        for r0, r1, c0, c1 in kept:
            # with integer extents, gap < slot is: start - other end <= slot, both ways
            while near := [b for b in merged if b[0] - r1 <= sr and r0 - b[1] <= sr
                           and b[2] - c1 <= sc and c0 - b[3] <= sc]:
                for b in near:
                    merged.remove(b)
                near.append((r0, r1, c0, c1))
                r0s, r1s, c0s, c1s = zip(*near)
                r0, r1, c0, c1 = min(r0s), max(r1s), min(c0s), max(c1s)
            merged.append((r0, r1, c0, c1))
    return _sorted_rows(merged)


@dataclass
class ProposeResult:
    """The proposals as Rows sorted by (r0, c0, r1, c1), the full trace, and the
    search they came from."""

    rows: list[Row]
    trace: CycleTrace
    search: IssResult

    @property
    def boxes(self) -> list[Box]:
        """The rows as Box objects, in row order, built on each read."""
        return [Box(*row) for row in self.rows]


def region_propose(frame: BinaryFrame, cfg: RpConfig) -> ProposeResult:
    """Projection-phase search followed by the controller consolidation pass.

    The returned trace holds the search's op counts plus the controller's:
    one controller op per proposal handed to consolidation and one fixed
    overhead op.
    """
    return _consolidated(iss(frame, cfg), cfg)


def _consolidated(found: IssResult, cfg: RpConfig) -> ProposeResult:
    """The search's candidates through the controller's consolidation pass, with the
    search's op counts plus the controller's in the trace."""
    rows = rp_update(found.candidates, cfg)
    trace = CycleTrace({**found.trace.counts,
                        CONTROLLER_OBJECT: len(found.candidates), CONTROLLER_FIXED: 1})
    return ProposeResult(rows, trace, found)


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
