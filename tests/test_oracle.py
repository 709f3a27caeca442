"""Connected-components oracle, IoU matching, and corpus evaluation."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_of
from match_reference import reference_evaluate, reference_match_boxes
from cramsim import oracle
from cramsim.diffusion import DiffusionConfig
from cramsim.errors import ConfigError
from cramsim.grid import BinaryFrame
from cramsim.oracle import (
    EvalPipeline,
    FrameSample,
    ccl,
    evaluate,
    evaluate_sweep,
    iou,
    match_boxes,
)
from cramsim.projection import Box, RpConfig


# --- connected components


def test_ccl_basic_labels_in_raster_order():
    f = frame_of(
        """
        ##..#
        ##..#
        .....
        #..##
        """
    )
    comps = ccl(f)
    assert [c.label for c in comps] == [1, 2, 3, 4]  # 0 is background
    assert comps[0].bbox == Box(0, 1, 0, 1)
    assert comps[1].bbox == Box(0, 1, 4, 4)
    assert comps[2].bbox == Box(3, 3, 0, 0)
    assert comps[3].bbox == Box(3, 3, 3, 4)


def test_ccl_8_vs_4_connectivity_on_diagonal():
    f = frame_of(
        """
        #..
        .#.
        ..#
        """
    )
    assert len(ccl(f, connectivity=8)) == 1
    assert len(ccl(f, connectivity=4)) == 3
    with pytest.raises(ConfigError):
        ccl(f, connectivity=6)


def test_ccl_pixel_counts_partition_the_ones():
    f = frame_of(
        """
        .##..#
        ##..##
        """
    )
    comps = ccl(f)
    assert [c.pixels for c in comps] == [4, 3]
    assert sum(c.pixels for c in comps) == f.popcount()
    assert comps[0].bbox == Box(0, 1, 0, 2)
    assert comps[1].bbox == Box(0, 1, 4, 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ccl_matches_scipy(data):
    scipy_ndimage = pytest.importorskip("scipy.ndimage")  # only in the test extra
    h = data.draw(st.integers(1, 24))
    w = data.draw(st.integers(1, 24))
    density = data.draw(st.sampled_from([0.1, 0.35, 0.6, 0.9]))
    seed = data.draw(st.integers(0, 10**6))
    connectivity = data.draw(st.sampled_from([4, 8]))
    rng = np.random.default_rng(seed)
    pixels = (rng.random((h, w)) < density).astype(np.uint8)
    f = BinaryFrame(pixels)

    structure = np.ones((3, 3)) if connectivity == 8 else None
    labeled, n = scipy_ndimage.label(pixels, structure=structure)
    comps = ccl(f, connectivity=connectivity)
    assert len(comps) == n
    assert sum(c.pixels for c in comps) == int(pixels.sum())
    # bounding boxes and sizes agree with scipy's, as unordered multisets
    slices = scipy_ndimage.find_objects(labeled)
    want = sorted(
        (sl[0].start, sl[0].stop - 1, sl[1].start, sl[1].stop - 1,
         int((labeled[sl] == lab).sum()))
        for lab, sl in enumerate(slices, start=1)
    )
    got = sorted((c.bbox.r0, c.bbox.r1, c.bbox.c0, c.bbox.c1, c.pixels) for c in comps)
    assert got == want


def test_ccl_empty_frame():
    assert ccl(BinaryFrame.zeros(5, 5)) == []


# --- IoU and matching


def test_iou_frozen_values():
    a = Box(0, 9, 0, 9)
    assert iou(a, Box(0, 9, 5, 14)) == pytest.approx(1 / 3)
    assert iou(a, a) == 1.0
    assert iou(a, Box(0, 9, 10, 19)) == 0.0  # touching edges, no overlap
    assert iou(Box(0, 0, 0, 0), Box(0, 0, 0, 0)) == 1.0


def test_match_boxes_one_to_one_greedy():
    gt = [Box(0, 9, 0, 9), Box(0, 9, 20, 29)]
    pred = [Box(0, 9, 2, 11), Box(0, 9, 1, 10), Box(50, 59, 50, 59)]
    m = match_boxes(pred, gt, iou_threshold=0.5)
    # pred 1 overlaps gt 0 more than pred 0 does; one pred left unmatched
    assert m.pairs == [(1, 0)]
    assert (m.tp, m.fp, m.fn) == (1, 2, 1)


def test_match_boxes_threshold_is_inclusive():
    gt = [Box(0, 9, 0, 9)]
    pred = [Box(0, 9, 5, 14)]  # IoU exactly 1/3
    assert match_boxes(pred, gt, iou_threshold=1 / 3).tp == 1
    assert match_boxes(pred, gt, iou_threshold=0.34).tp == 0


def test_match_boxes_empty_sides():
    assert match_boxes([], [Box(0, 1, 0, 1)], 0.5).fn == 1
    assert match_boxes([Box(0, 1, 0, 1)], [], 0.5).fp == 1
    m = match_boxes([], [], 0.5)
    assert (m.tp, m.fp, m.fn) == (0, 0, 0)
    with pytest.raises(ConfigError):
        match_boxes([], [], 0.0)


def test_match_boxes_tie_breaks_by_gt_then_pred_index():
    gt = [Box(0, 3, 0, 3), Box(0, 3, 0, 3)]
    pred = [Box(0, 3, 0, 3), Box(0, 3, 0, 3)]
    m = match_boxes(pred, gt, 0.5)
    assert m.pairs == [(0, 0), (1, 1)]


side = st.integers(0, 4)
box_strategy = st.builds(lambda r0, h, c0, w: Box(r0, r0 + h, c0, c0 + w),
                         st.integers(0, 9), side, st.integers(0, 9), side)


@st.composite
def nested_in(draw, box: Box) -> Box:
    """A box inside box, edges included."""
    r0, r1 = sorted(draw(st.lists(st.integers(box.r0, box.r1), min_size=2, max_size=2)))
    c0, c1 = sorted(draw(st.lists(st.integers(box.c0, box.c1), min_size=2, max_size=2)))
    return Box(r0, r1, c0, c1)


@st.composite
def pred_and_gt(draw) -> tuple[list[Box], list[Box]]:
    """Either side may be empty; predictions repeat, nest in or miss the ground
    truth, and the small coordinate range makes tied IoUs common."""
    gt = draw(st.lists(box_strategy, max_size=6))
    kinds = [box_strategy]
    if gt:
        kinds += [st.sampled_from(gt), st.sampled_from(gt).flatmap(nested_in),
                  st.sampled_from(gt).map(lambda b: Box(b.r0 + 20, b.r1 + 20, b.c0, b.c1))]
    pred = draw(st.lists(st.one_of(kinds), max_size=6))
    return pred, gt


def thresholds_for(draw, frames: list[tuple[list[Box], list[Box]]]) -> list[float]:
    """1-6 thresholds in (0, 1], some of them exactly the IoU of a frame's (pred, gt) pair."""
    values = sorted({iou(p, g) for pred, gt in frames for p in pred for g in gt} - {0.0})
    kinds = [st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)]
    if values:
        kinds.append(st.sampled_from(values))
    return draw(st.lists(st.one_of(kinds), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_boxes_matches_reference(data):
    pred, gt = data.draw(pred_and_gt())
    for thr in thresholds_for(data.draw, [(pred, gt)]):
        assert match_boxes(pred, gt, thr) == reference_match_boxes(pred, gt, thr), thr


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluate_matches_reference_summed_threshold_by_threshold(data):
    """One match per frame at the lowest threshold gives every threshold's
    report, as matching at each threshold and summing would."""
    pipe = EvalPipeline(rp=RpConfig(size_min=1, slot_r=2, slot_c=2),
                        restore=data.draw(st.booleans()), consolidate=data.draw(st.booleans()))
    samples, frames = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        objects, gt = data.draw(pred_and_gt())
        px = np.zeros((34, 16), dtype=np.uint8)
        for b in objects:
            px[b.r0:b.r1 + 1, b.c0:b.c1 + 1] = 1
        frame = BinaryFrame(px)
        samples.append(FrameSample(frame, gt))
        frames.append((pipe.propose(frame).boxes, gt))
    thresholds = thresholds_for(data.draw, frames)
    want = reference_evaluate(samples, pipe, thresholds)
    for workers in (1, 2):
        assert evaluate(samples, pipe, thresholds, workers=workers) == want, workers


# --- evaluation


def _sample(pixels_art: str, gt: list[Box]) -> FrameSample:
    return FrameSample(frame=frame_of(pixels_art), gt=gt)


def test_evaluate_micro_counts_by_hand():
    # identity pipeline: no restore, no consolidation, perfect rectangles
    samples = [
        _sample("####....\n####....\n........", [Box(0, 1, 0, 3)]),
        _sample("........\n....####\n....####", [Box(1, 2, 4, 7), Box(0, 0, 0, 0)]),
    ]
    pipe = EvalPipeline(
        diffusion=DiffusionConfig(),
        rp=RpConfig(size_min=1, slot_r=0, slot_c=0),
        restore=False,
        consolidate=False,
    )
    reports = evaluate(samples, pipe, [0.5])
    r = reports[0]
    # frame 2's zero-area gt box at (0,0) is never proposed: one fn
    assert (r.tp, r.fp, r.fn) == (2, 0, 1)
    assert r.precision == 1.0
    assert r.recall == pytest.approx(2 / 3)
    assert r.f1 == pytest.approx(0.8)
    # weighted macro: frame f1s are 1.0 (w=1) and 2/3 (w=2)
    assert r.weighted_f1 == pytest.approx((1.0 + 2 * (2 / 3)) / 3)


def test_evaluate_multiple_thresholds_and_workers_agree():
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(12):
        px = np.zeros((16, 16), dtype=np.uint8)
        px[2:8, 3:9] = 1
        if rng.random() < 0.5:
            px[12:14, 12:15] = 1
        f = BinaryFrame(px)
        from cramsim.oracle import ccl as _ccl

        samples.append(FrameSample(frame=f, gt=[c.bbox for c in _ccl(f)]))
    pipe = EvalPipeline(
        diffusion=DiffusionConfig(),
        rp=RpConfig(size_min=1, slot_r=0, slot_c=0),
        restore=False,
        consolidate=True,
    )
    serial = evaluate(samples, pipe, [0.3, 0.5, 0.7], workers=1)
    threaded = evaluate(samples, pipe, [0.3, 0.5, 0.7], workers=4)
    assert serial == threaded
    assert [r.iou_threshold for r in serial] == [0.3, 0.5, 0.7]
    assert all(r.f1 == 1.0 for r in serial)


def test_evaluate_requires_frames():
    pipe = EvalPipeline(diffusion=DiffusionConfig(), rp=RpConfig())
    with pytest.raises(ConfigError):
        evaluate([], pipe)


def test_evaluate_requires_thresholds():
    # None scores the default thresholds; an explicit empty list is an error
    samples = [FrameSample(frame=frame_of("##\n##"), gt=[Box(0, 1, 0, 1)])]
    pipe = EvalPipeline(diffusion=DiffusionConfig(), rp=RpConfig())
    with pytest.raises(ConfigError):
        evaluate(samples, pipe, [])


def test_evaluate_checks_thresholds_before_any_frame(monkeypatch):
    calls = []

    def counting_propose(self, frame):
        calls.append(frame)
        return SimpleNamespace(proposal=SimpleNamespace(rows=[]))

    monkeypatch.setattr(EvalPipeline, "propose", counting_propose)
    samples = [FrameSample(frame=frame_of("##\n##"), gt=[Box(0, 1, 0, 1)])] * 3
    pipe = EvalPipeline(diffusion=DiffusionConfig(), rp=RpConfig())
    for bad in (5, 0, -0.5, float("nan")):
        with pytest.raises(ConfigError, match="iou_threshold"):
            evaluate(samples, pipe, [0.5, bad], workers=2)
    assert calls == []
    evaluate(samples, pipe, [0.5])
    assert len(calls) == 3


def test_evaluate_sweep_setting_ids_and_grid_order():
    samples = [
        FrameSample(frame=frame_of("####\n####\n...."), gt=[Box(0, 1, 0, 3)])
    ]
    pipe = EvalPipeline(
        diffusion=DiffusionConfig(),
        rp=RpConfig(size_min=1, slot_r=0, slot_c=0),
        restore=False,
        consolidate=False,
    )
    results = evaluate_sweep(samples, pipe, [0.5, 1.0], [4, 8], [0.5])
    assert [sid for sid, _ in results] == [
        "amp0.5_sub4",
        "amp0.5_sub8",
        "amp1_sub4",
        "amp1_sub8",
    ]
    assert all(len(reports) == 1 for _, reports in results)


def test_evaluate_sweep_without_grids_is_the_default_run():
    samples = [FrameSample(frame=frame_of("##..\n##..\n...#"), gt=[Box(0, 1, 0, 1)])]
    pipe = EvalPipeline(rp=RpConfig(size_min=1, slot_r=0, slot_c=0), restore=False)
    assert evaluate_sweep(samples, pipe, [], [], [0.3, 0.5]) == [
        ("default", evaluate(samples, pipe, [0.3, 0.5]))
    ]


@pytest.mark.parametrize("amplitudes,substeps", [([0.5, 1.0], []), ([], [4])])
def test_evaluate_sweep_needs_both_grids_or_neither(amplitudes, substeps):
    samples = [FrameSample(frame=frame_of("##\n##"), gt=[Box(0, 1, 0, 1)])]
    with pytest.raises(ConfigError, match="together"):
        evaluate_sweep(samples, EvalPipeline(), amplitudes, substeps)


def test_evaluate_sweep_checks_every_setting_before_any_frame(monkeypatch):
    calls = []

    def counting_propose(self, frame):
        calls.append(frame)
        return SimpleNamespace(proposal=SimpleNamespace(rows=[]))

    monkeypatch.setattr(EvalPipeline, "propose", counting_propose)
    samples = [FrameSample(frame=frame_of("##\n##"), gt=[Box(0, 1, 0, 1)])] * 3
    # amplitude 2 times alpha 0.2 exceeds the stability limit; it comes last
    with pytest.raises(ConfigError, match="amplitude"):
        evaluate_sweep(samples, EvalPipeline(), [0.5, 1.0, 2.0], [4, 8], [0.5], workers=2)
    assert calls == []


def test_pipeline_toggles_change_proposals():
    # a speck beside a fragmented object: restoration and consolidation
    # each repair a different defect
    px = np.zeros((24, 24), dtype=np.uint8)
    px[4:12, 4:8] = 1
    px[4:12, 10:14] = 1  # fragment 2 columns away
    px[20, 20] = 1       # speck
    f = BinaryFrame(px)
    rp = RpConfig()  # size_min 4, slots 4

    def boxes(restore: bool, consolidate: bool):
        pipe = EvalPipeline(
            diffusion=DiffusionConfig(), rp=rp, restore=restore, consolidate=consolidate
        )
        return pipe.propose(f).boxes

    raw = boxes(False, False)
    assert Box(20, 20, 20, 20) in raw and len(raw) == 3
    merged = boxes(False, True)
    assert merged == [Box(4, 11, 4, 13)]  # speck filtered, halves merged
    restored = boxes(True, False)
    # diffusion erases the speck and bridges the 2-column split, at the
    # price of eroding one row from the top and bottom edges
    assert restored == [Box(5, 10, 4, 13)]
    assert boxes(True, True) == restored


@pytest.mark.parametrize("restore", [False, True])
def test_unconsolidated_run_charges_the_search_and_the_diffusion_only(restore):
    frame = BinaryFrame(np.kron(np.eye(3, dtype=np.uint8), np.ones((6, 5), dtype=np.uint8)))
    d = DiffusionConfig(pulses=2, substeps_per_pulse=3, ring=2)
    run = EvalPipeline(diffusion=d, restore=restore, consolidate=False).propose(frame)
    cost = run.cost
    assert cost.total_cycles == cost.imc_cycles > 0  # the controller never ran
    assert cost.diffusion_ops == (5 * 2 * 3 * (18 + 4) * (15 + 4) if restore else 0)
    assert cost.projection_ops == sum(run.proposal.search.projection_cells)
    assert run.boxes == run.proposal.search.boxes


def test_evaluate_never_works_out_the_modeled_cost(monkeypatch):
    def no_cost(*args):
        raise AssertionError("cost_report called")

    monkeypatch.setattr(oracle, "cost_report", no_cost)
    sample = _sample("##.\n##.\n...", [Box(0, 1, 0, 1)])
    with pytest.raises(AssertionError, match="cost_report"):
        EvalPipeline().propose(sample.frame).cost
    for consolidate in (False, True):
        pipe = EvalPipeline(restore=False, consolidate=consolidate)
        assert [r.tp for r in evaluate([sample] * 3, pipe, [0.5], workers=2)] == [3]


def test_pool_map_creates_one_pool_for_concurrent_callers(monkeypatch):
    """Client threads that race on a fresh worker count share the one pool made for it."""
    created = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(oracle, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(oracle, "_pools", {})
    rounds, n_clients = 10, 8
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            oracle._pools.clear()  # the next call must create the pool for 5 workers
            start = threading.Barrier(n_clients)

            def client(k):
                start.wait()
                results[r, k] = oracle._pool_map(lambda x: x * k, list(range(8)), 5)

            clients = [threading.Thread(target=client, args=(k,)) for k in range(n_clients)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in clients)
    finally:
        sys.setswitchinterval(interval)
        for pool in created:
            pool.shutdown()
    assert len(created) == rounds
    assert results == {(r, k): [x * k for x in range(8)]
                       for r in range(rounds) for k in range(n_clients)}


@pytest.fixture()
def short_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_pool_map_returns_results_in_item_order(workers, n, short_switch_interval):
    def slow_square(x):
        time.sleep(0.001 * ((x * 5) % 3))  # items finish out of order
        return x * x

    for _ in range(5):
        assert oracle._pool_map(slow_square, list(range(n)), workers) == [x * x for x in range(n)]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pool_map_raises_lowest_failing_index_after_every_task_ends(workers):
    """Slow item 1 fails after item 2 has failed, and no item is still running on return."""
    lock = threading.Lock()
    running = []

    def func(x):
        with lock:
            running.append(x)
        try:
            time.sleep({0: 0.0, 1: 0.05, 2: 0.0}.get(x, 0.1))
            if x in (1, 2):
                raise ValueError(x)
            return x
        finally:
            with lock:
                running.remove(x)

    for _ in range(2):
        with pytest.raises(ValueError) as info:
            oracle._pool_map(func, list(range(7)), workers)
        assert info.value.args == (1,)
        assert running == []


@pytest.mark.parametrize("workers", [2, 4])
def test_pool_map_calling_thread_takes_turns(workers, short_switch_interval):
    """The calling thread runs items too, and no more than `workers` threads run any."""
    caller = threading.get_ident()
    lock = threading.Lock()

    def func(x):
        with lock:
            ran_on.add(threading.get_ident())
        time.sleep(0.005)  # a pool thread that sleeps lets the caller claim an item
        return x * x

    for _ in range(3):
        ran_on = set()
        assert oracle._pool_map(func, list(range(7)), workers) == [x * x for x in range(7)]
        assert caller in ran_on
        assert len(ran_on) <= workers


def test_pool_map_submits_one_task_per_usable_thread(monkeypatch):
    """A call submits one task per pool thread it can use; the caller is the other taker."""
    created = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            self.workers, self.submitted = max_workers, 0
            created.append(self)
            super().__init__(max_workers, **kwargs)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(oracle, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(oracle, "_pools", {})
    try:
        for workers in (2, 4):
            for n in (0, 1, 2, 7):
                for _ in range(3):
                    before = sum(pool.submitted for pool in created)
                    assert oracle._pool_map(str, list(range(n)), workers) == [str(x) for x in range(n)]
                    submitted = sum(pool.submitted for pool in created) - before
                    assert submitted == (min(workers, n) - 1 if n > 1 else 0)
        assert [pool.workers for pool in created] == [1, 3]
    finally:
        for pool in created:
            pool.shutdown()
