"""The per-frame pipeline, ground-truth components, box matching and the F1 benchmark.

The raster-scan labeling here is the reference any proposal pipeline is
scored against. Detection scoring matches predicted and ground-truth boxes
greedily by descending IoU and micro-averages tp/fp/fn over a corpus; a
ground-truth-count-weighted macro F1 is reported alongside for comparison.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .diffusion import DiffusionConfig, restore_image
from .errors import ConfigError
from .grid import BinaryFrame
from .projection import Box, ProposeResult, RpConfig, Row, _consolidated, _sorted_rows, iss
from .timing import CostReport, cost_report

IOU_THRESHOLDS = (0.3, 0.5, 0.7)  # scored when no thresholds are given

_pools: dict[int, ThreadPoolExecutor] = {}  # worker count -> this process's pool
_pools_lock = threading.Lock()


def _pool_map(func, items: list, workers: int) -> list:
    """Apply func over items, in order, on the calling thread and `workers` - 1 pool threads.

    The pool for each worker count holds workers - 1 threads; it is created
    on first use and kept for the life of the process, so repeated calls
    start no new threads. Each call submits one task to each pool thread it
    can use, min(workers, len(items)) - 1, then takes turns itself: every
    taker, the calling thread included, takes the next unclaimed item until
    none is left, so a thread that finishes early takes more frames.
    Results are stored by item index. After a failure no further item is
    handed out; the call waits for every task and raises the exception of
    the lowest failing index, which is the one an in-order map would raise.
    A task running on a pool must never submit work to the same pool: once
    every pool thread waits on such a task, nothing is left to run it. With
    one worker or one item, func runs on the calling thread alone.
    """
    n = len(items)
    if workers <= 1 or n <= 1:
        return [func(item) for item in items]
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=workers - 1, thread_name_prefix="cram-sim")
            _pools[workers] = pool
    results = [None] * n
    errors: dict[int, BaseException] = {}  # item index -> what func raised
    claim = itertools.count()  # next() on it is one atomic step under the GIL

    def take_turns() -> None:
        for i in claim:
            if i >= n or errors:
                return
            try:
                results[i] = func(items[i])
            except BaseException as exc:  # re-raised on the calling thread below
                errors[i] = exc
                return

    tasks = [pool.submit(take_turns) for _ in range(min(workers, n) - 1)]
    take_turns()
    for task in tasks:
        task.result()
    if errors:
        raise errors[min(errors)]
    return results


@dataclass(frozen=True)
class Component:
    """One connected blob: raster-order label, pixel count, tight bounding box."""

    label: int
    pixels: int
    bbox: Box


def ccl(frame: BinaryFrame, connectivity: int = 8) -> list[Component]:
    """Label maximal connected components of 1-pixels by raster scanning.

    Components are numbered 1.. in order of their first pixel in raster
    order. Works run-at-a-time: each maximal horizontal run is a node,
    unioned with runs of the previous row it touches (diagonal contact
    counts only under 8-connectivity).
    """
    if connectivity not in (4, 8):
        raise ConfigError(f"connectivity must be 4 or 8, got {connectivity}")
    px = frame.pixels
    height, width = px.shape
    reach = 1 if connectivity == 8 else 0

    parent: list[int] = []

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # runs[i] = (row, c_start, c_end); prev_runs holds the previous row's runs
    runs: list[tuple[int, int, int]] = []
    prev_runs: list[int] = []
    for r in range(height):
        row = px[r]
        edges = np.flatnonzero(np.diff(np.concatenate(([0], row, [0]))))
        cur_runs: list[int] = []
        for c0, c1 in zip(edges[::2], edges[1::2] - 1):
            idx = len(runs)
            runs.append((r, int(c0), int(c1)))
            parent.append(idx)
            cur_runs.append(idx)
            lo, hi = int(c0) - reach, int(c1) + reach
            for j in prev_runs:
                _, p0, p1 = runs[j]
                if p0 <= hi and p1 >= lo:
                    union(idx, j)
        prev_runs = cur_runs

    # group runs by root; roots appear in raster order of their first run
    groups: dict[int, list[int]] = {}
    for i in range(len(runs)):
        groups.setdefault(find(i), []).append(i)
    components = []
    for label, root in enumerate(sorted(groups), start=1):
        members = groups[root]
        r0 = min(runs[i][0] for i in members)
        r1 = max(runs[i][0] for i in members)
        c0 = min(runs[i][1] for i in members)
        c1 = max(runs[i][2] for i in members)
        count = sum(runs[i][2] - runs[i][1] + 1 for i in members)
        components.append(Component(label, count, Box(r0, r1, c0, c1)))
    return components


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two inclusive-coordinate boxes."""
    ir0, ir1 = max(a.r0, b.r0), min(a.r1, b.r1)
    ic0, ic1 = max(a.c0, b.c0), min(a.c1, b.c1)
    if ir0 > ir1 or ic0 > ic1:
        return 0.0
    inter = (ir1 - ir0 + 1) * (ic1 - ic0 + 1)
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int
    pairs: list[tuple[int, int]]  # (pred index, gt index)


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ConfigError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def _greedy_matches(pred: Sequence[Row], gt: Sequence[Row],
                    lowest: float) -> list[tuple[int, int, float]]:
    """The greedy one-to-one matching of match_boxes at threshold lowest, on
    (r0, r1, c0, c1) rows: the taken (pred index, gt index, IoU) in take order.

    Pairs are taken in descending IoU order, ties broken on (gt index, pred
    index), and IoU is worked out inline as iou does, so each value is the
    same float. Whether a pair is taken depends only on the pairs before it,
    and the pairs at or above any higher threshold are a prefix of that
    order; so the matches at such a threshold are the taken pairs whose IoU
    reaches it, which is how evaluate scores every threshold in one pass.
    """
    areas = [(r1 - r0 + 1) * (c1 - c0 + 1) for r0, r1, c0, c1 in pred]
    scored = []
    for gi, (gr0, gr1, gc0, gc1) in enumerate(gt):
        area_g = (gr1 - gr0 + 1) * (gc1 - gc0 + 1)
        for pi, (r0, r1, c0, c1) in enumerate(pred):
            rows = min(r1, gr1) - max(r0, gr0) + 1
            cols = min(c1, gc1) - max(c0, gc0) + 1
            if rows > 0 and cols > 0:  # a disjoint pair has IoU 0, under every threshold
                inter = rows * cols
                value = inter / (areas[pi] + area_g - inter)
                if value >= lowest:
                    scored.append((-value, gi, pi))
    scored.sort()
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    taken = []
    for value, gi, pi in scored:
        if gi in used_gt or pi in used_pred:
            continue
        used_gt.add(gi)
        used_pred.add(pi)
        taken.append((pi, gi, -value))
    return taken


def _rows(boxes: Sequence[Box]) -> list[Row]:
    return [(b.r0, b.r1, b.c0, b.c1) for b in boxes]


def match_boxes(pred: list[Box], gt: list[Box], iou_threshold: float) -> MatchResult:
    """Greedy one-to-one matching in descending IoU order.

    A pair matches iff IoU >= iou_threshold; ties break on (gt index,
    pred index). Every prediction and ground truth is assigned at most once.
    """
    _check_iou_threshold(iou_threshold)
    pairs = [(pi, gi) for pi, gi, _ in _greedy_matches(_rows(pred), _rows(gt), iou_threshold)]
    tp = len(pairs)
    return MatchResult(tp=tp, fp=len(pred) - tp, fn=len(gt) - tp, pairs=pairs)


@dataclass(frozen=True)
class EvalReport:
    """Micro-averaged detection scores at one IoU threshold.

    weighted_f1 is the companion GT-count-weighted per-frame macro F1,
    reported alongside the micro scores for comparison.
    """

    iou_threshold: float
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    weighted_f1: float


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


class FrameRun(NamedTuple):
    """One frame through the pipeline: its proposal, the diffusion substeps run before
    the search (0 if unrestored) and the diffused cells, dummy ring included."""

    proposal: ProposeResult
    substeps: int
    cells: int

    @property
    def boxes(self) -> list[Box]:
        """The proposal's boxes, built on each read."""
        return self.proposal.boxes

    @property
    def cost(self) -> CostReport:
        """The frame's modeled cost, worked out on each read: evaluate never reads it."""
        return cost_report(self.proposal, self.substeps, self.cells)


@dataclass(frozen=True)
class EvalPipeline:
    """The per-frame pipeline of `cram-sim propose` and `cram-sim eval`.

    propose() is the one place that restores, searches and consolidates a
    frame. restore/consolidate toggles support ablations; with consolidate
    off the raw projection-search boxes are the proposal, and the
    controller, which never runs, is charged nothing.

    A frame that propose() restores is restored and searched in one compiled
    call where the kernels load (restore_image with the search config): the
    restored bits stay in the thread's buffers, and the call gives up the
    GIL once per frame. The result is that of iss(restore_image(frame)), bit
    for bit, and so are the proposal and the modeled cost.
    """

    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    rp: RpConfig = field(default_factory=RpConfig)
    restore: bool = True
    consolidate: bool = True

    def propose(self, frame: BinaryFrame) -> FrameRun:
        d = self.diffusion
        cells = (frame.height + 2 * d.ring) * (frame.width + 2 * d.ring)
        found = restore_image(frame, d, self.rp) if self.restore else iss(frame, self.rp)
        if self.consolidate:
            proposal = _consolidated(found, self.rp)
        else:
            proposal = ProposeResult(_sorted_rows(found.candidates.tolist()), found.trace, found)
        return FrameRun(proposal, d.pulses * d.substeps_per_pulse if self.restore else 0, cells)


@dataclass(frozen=True)
class FrameSample:
    frame: BinaryFrame
    gt: list[Box]


def evaluate(
    samples: list[FrameSample],
    pipeline: EvalPipeline,
    iou_thresholds: list[float] | None = None,
    workers: int = 1,
) -> list[EvalReport]:
    """Score the pipeline over a corpus, one report per IoU threshold.

    The calling thread and up to workers - 1 pool threads take turns: one of
    them proposes each frame's boxes and matches them once, at the lowest
    threshold; a higher threshold's matches are the ones whose IoU reaches
    it (see _greedy_matches).
    The calling thread then sums tp/fp/fn (micro average) and the weighted
    F1 in frame order, so the reports do not depend on the worker count,
    bit for bit.
    Every threshold is checked before any frame is proposed.
    """
    if not samples:
        raise ConfigError("evaluate needs at least one frame")
    thresholds = iou_thresholds if iou_thresholds is not None else IOU_THRESHOLDS
    if not thresholds:
        raise ConfigError("evaluate needs at least one IoU threshold")
    for thr in thresholds:
        _check_iou_threshold(thr)

    lowest = min(thresholds)

    def score(sample: FrameSample) -> tuple[int, list[float]]:
        pred = pipeline.propose(sample.frame).proposal.rows
        taken = _greedy_matches(pred, _rows(sample.gt), lowest)
        return len(pred), [value for _, _, value in taken]

    scored = _pool_map(score, samples, workers)  # per frame: (preds, IoU of each match)

    reports = []
    for thr in thresholds:
        tp = fp = fn = 0
        weight_sum = 0
        weighted_acc = 0.0
        for sample, (n_pred, values) in zip(samples, scored):
            w = len(sample.gt)
            m_tp = sum(value >= thr for value in values)
            m_fp, m_fn = n_pred - m_tp, w - m_tp
            tp += m_tp
            fp += m_fp
            fn += m_fn
            if w:
                weight_sum += w
                weighted_acc += w * _prf(m_tp, m_fp, m_fn)[2]
        precision, recall, f1 = _prf(tp, fp, fn)
        weighted = weighted_acc / weight_sum if weight_sum else 0.0
        reports.append(EvalReport(thr, tp, fp, fn, precision, recall, f1, weighted))
    return reports


def evaluate_sweep(
    samples: list[FrameSample],
    pipeline: EvalPipeline,
    amplitudes: list[float],
    substeps: list[int],
    iou_thresholds: list[float] | None = None,
    workers: int = 1,
) -> list[tuple[str, list[EvalReport]]]:
    """Evaluate over an (amplitude x substeps) grid of diffusion settings.

    With both grids empty the one setting is the pipeline itself, with id
    "default"; giving only one grid is a ConfigError. Every setting is built,
    and so checked, before any frame is proposed. Returns (setting_id,
    reports) per setting, in grid order.
    """
    if bool(amplitudes) != bool(substeps):
        raise ConfigError("sweep amplitudes and substeps must be given together, "
                          f"got {len(amplitudes)} amplitudes and {len(substeps)} substeps")
    settings = [] if amplitudes else [("default", pipeline)]
    for amp in amplitudes:
        for sub in substeps:
            cfg = replace(pipeline.diffusion, amplitude=amp, substeps_per_pulse=sub)
            settings.append((f"amp{amp:g}_sub{sub}", replace(pipeline, diffusion=cfg)))
    return [(setting_id, evaluate(samples, setting, iou_thresholds, workers))
            for setting_id, setting in settings]
