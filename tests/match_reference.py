"""Plain greedy box matching, the reference for `oracle.match_boxes` and `oracle.evaluate`.

It scores every (gt, pred) pair with `oracle.iou`, which reads `Box.area`,
and matches one threshold at a time. The package matches once per frame,
at the lowest threshold, on plain int rows; it must return the same
matches, and `evaluate` the same reports, bit for bit.
"""

from __future__ import annotations

from cramsim.oracle import EvalPipeline, EvalReport, FrameSample, MatchResult, iou
from cramsim.projection import Box


def reference_match_boxes(pred: list[Box], gt: list[Box], iou_threshold: float) -> MatchResult:
    """Take the pairs with IoU >= iou_threshold greedily, in descending IoU order,
    ties broken on (gt index, pred index)."""
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


def _f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def reference_evaluate(samples: list[FrameSample], pipeline: EvalPipeline,
                       iou_thresholds: list[float]) -> list[EvalReport]:
    """Propose every frame, then match and sum the frames threshold by threshold."""
    preds = [pipeline.propose(sample.frame).boxes for sample in samples]
    reports = []
    for thr in iou_thresholds:
        matches = [reference_match_boxes(pred, s.gt, thr) for pred, s in zip(preds, samples)]
        tp = sum(m.tp for m in matches)
        fp = sum(m.fp for m in matches)
        fn = sum(m.fn for m in matches)
        weighted_acc = 0.0
        for m, sample in zip(matches, samples):
            if sample.gt:
                weighted_acc += len(sample.gt) * _f1(m.tp, m.fp, m.fn)[2]
        weight_sum = sum(len(s.gt) for s in samples)
        weighted = weighted_acc / weight_sum if weight_sum else 0.0
        reports.append(EvalReport(thr, tp, fp, fn, *_f1(tp, fp, fn), weighted))
    return reports
