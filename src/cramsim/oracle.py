"""Ground-truth connected components, box matching, and the F1 benchmark.

The raster-scan labeling here is the reference any proposal pipeline is
scored against. Detection scoring matches predicted and ground-truth boxes
greedily by descending IoU and micro-averages tp/fp/fn over a corpus; a
ground-truth-count-weighted macro F1 is reported alongside for comparison.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import DiffusionConfig, restore_image
from .errors import ConfigError
from .grid import BinaryFrame
from .projection import Box, RpConfig, iss, region_propose

IOU_THRESHOLDS = (0.3, 0.5, 0.7)  # scored when no thresholds are given

_pools: dict[int, ThreadPoolExecutor] = {}  # worker count -> this process's pool
_pools_lock = threading.Lock()


def _pool_map(func, items: list, workers: int) -> list:
    """Apply func over items, in order, on the process's pool of `workers` threads.

    The pool for each worker count is created on first use and kept for the
    life of the process, so repeated calls start no new threads. A task
    running on a pool must never submit work to the same pool: once every
    worker waits on such a task, nothing is left to run it. With one worker
    or one item, func runs on the calling thread.
    """
    if workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="cram-sim")
            _pools[workers] = pool
    return list(pool.map(func, items))


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


def match_boxes(pred: list[Box], gt: list[Box], iou_threshold: float) -> MatchResult:
    """Greedy one-to-one matching in descending IoU order.

    A pair matches iff IoU >= iou_threshold; ties break on (gt index,
    pred index). Every prediction and ground truth is assigned at most once.
    """
    _check_iou_threshold(iou_threshold)
    scored = []
    for gi, g in enumerate(gt):
        for pi, p in enumerate(pred):
            value = iou(p, g)
            if value >= iou_threshold:
                scored.append((-value, gi, pi))
    scored.sort()
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, gi, pi in scored:
        if gi in used_gt or pi in used_pred:
            continue
        used_gt.add(gi)
        used_pred.add(pi)
        pairs.append((pi, gi))
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


@dataclass(frozen=True)
class EvalPipeline:
    """What runs per frame during evaluation: restoration then proposal.

    restore/consolidate toggles support ablations; with consolidate off the
    raw projection-search boxes are scored.
    """

    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    rp: RpConfig = field(default_factory=RpConfig)
    restore: bool = True
    consolidate: bool = True

    def propose(self, frame: BinaryFrame) -> list[Box]:
        if self.restore:
            frame = restore_image(frame, self.diffusion)
        if self.consolidate:
            return region_propose(frame, self.rp).boxes
        return iss(frame, self.rp).boxes


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

    tp/fp/fn accumulate globally (micro average); integer sums make the
    reduction order irrelevant, so per-frame work may run in parallel.
    Every threshold is checked before any frame is proposed.
    """
    if not samples:
        raise ConfigError("evaluate needs at least one frame")
    thresholds = iou_thresholds if iou_thresholds is not None else IOU_THRESHOLDS
    if not thresholds:
        raise ConfigError("evaluate needs at least one IoU threshold")
    for thr in thresholds:
        _check_iou_threshold(thr)

    def run(sample: FrameSample) -> list[Box]:
        return pipeline.propose(sample.frame)

    predictions = _pool_map(run, samples, workers)

    reports = []
    for thr in thresholds:
        tp = fp = fn = 0
        weight_sum = 0
        weighted_acc = 0.0
        for sample, pred in zip(samples, predictions):
            m = match_boxes(pred, sample.gt, thr)
            tp += m.tp
            fp += m.fp
            fn += m.fn
            w = len(sample.gt)
            if w:
                weight_sum += w
                weighted_acc += w * _prf(m.tp, m.fp, m.fn)[2]
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

    Returns (setting_id, reports) per grid point, in grid order.
    """
    out = []
    for amp in amplitudes:
        for sub in substeps:
            cfg = replace(pipeline.diffusion, amplitude=amp, substeps_per_pulse=sub)
            setting = replace(pipeline, diffusion=cfg)
            setting_id = f"amp{amp:g}_sub{sub}"
            out.append((setting_id, evaluate(samples, setting, iou_thresholds, workers)))
    return out
