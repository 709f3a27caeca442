"""Projection readout, the alternating refinement search, and box consolidation."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import KERNELS, box_array, box_rows, frame_of, kernel_in_use
from iss_reference import reference_iss, refine, runs_from_bits
from rp_reference import col_gap, reference_rp_update, row_gap, union
from cramsim import _ckernel
from cramsim.config import RunConfig
from cramsim.errors import ConfigError, InputError
from cramsim.grid import MAX_DIM, BinaryFrame
from cramsim.oracle import EvalPipeline
from cramsim.projection import (
    DAC_MAX,
    Box,
    ProjectionConfig,
    RpConfig,
    _fewest_to_trip,
    boxes_from_json,
    boxes_to_json,
    iss,
    line_trips,
    region_propose,
    rp_update,
)
from cramsim.synth import generate_corpus
from cramsim.timing import (
    CONTROLLER_FIXED,
    CONTROLLER_OBJECT,
    FULL_AXIS_PROJECTION,
    REGION_PROJECTION,
    trace_cycles,
)


# --- line voltage and detection


def test_line_voltage_frozen_values():
    """The line charges as 1 - exp(-n/0.7) and trips strictly above dac_code/15."""
    counts = np.arange(40)
    for code in range(DAC_MAX + 1):
        cfg = ProjectionConfig(dac_code=code)
        want = [1.0 - math.exp(-n / 0.7) > code / 15 for n in counts.tolist()]
        assert line_trips(counts, cfg).tolist() == want
        assert [bool(line_trips(n, cfg)) for n in counts.tolist()] == want
    # fewest enabled 1s that trip each code; V(1) = 0.7603490 sits in (11/15, 12/15]
    fewest = [int(np.argmax(line_trips(counts, ProjectionConfig(dac_code=c))))
              for c in range(DAC_MAX)]
    assert fewest == [1] * 12 + [2] * 3
    assert not line_trips(counts, ProjectionConfig(dac_code=DAC_MAX)).any()


def test_line_voltage_monotone():
    """A line that trips keeps tripping with more charge, at every DAC code."""
    counts = np.arange(40)
    for code in range(DAC_MAX + 1):
        bits = line_trips(counts, ProjectionConfig(dac_code=code)).astype(int)
        assert bits[0] == 0  # a line with no enabled 1s floats at zero
        assert np.all(np.diff(bits) >= 0)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(1e-3, 1e6, exclude_min=True, exclude_max=True))
@example(lam=0.7)
def test_fewest_to_trip_is_the_detector_at_every_dac_code(lam):
    """A line trips iff it holds at least _fewest_to_trip enabled 1s, for every count a
    frame line can hold."""
    counts = np.arange(MAX_DIM + 1)
    for code in range(DAC_MAX + 1):
        cfg = ProjectionConfig(dac_code=code, line_charge_constant=lam)
        fewest = _fewest_to_trip(cfg)
        assert 1 <= fewest <= MAX_DIM + 1
        assert np.array_equal(line_trips(counts, cfg), counts >= fewest)


def test_search_rejects_a_frame_over_max_dim():
    """_fewest_to_trip covers lines of up to MAX_DIM cells, so the search refuses a longer line."""
    with pytest.raises(InputError, match="exceeds"):
        iss(BinaryFrame(np.ones((1, MAX_DIM + 1), np.uint8)), RpConfig())
    assert len(iss(BinaryFrame(np.ones((1, MAX_DIM), np.uint8)), RpConfig()).candidates) == 1


def test_default_vref_detects_single_pixel():
    cfg = ProjectionConfig()
    assert cfg.vref == 7 / 15
    assert line_trips(1, cfg)  # one pixel is enough to trip a line


def test_projection_config_validation():
    with pytest.raises(ConfigError):
        ProjectionConfig(dac_code=16)
    with pytest.raises(ConfigError):
        ProjectionConfig(dac_code=-1)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ProjectionConfig(line_charge_constant=bad)


def test_project_rows_and_cols_with_mask():
    f = frame_of(
        """
        ....
        .##.
        ....
        #..#
        """
    )
    cfg = ProjectionConfig()
    assert line_trips(f.pixels.sum(axis=1), cfg).tolist() == [False, True, False, True]
    assert line_trips(f.pixels.sum(axis=0), cfg).all()
    # each row-band candidate's column pass is masked to its own rows, which
    # splits the row-3 corners apart and narrows row 1 to the middle columns
    res = iss(f, RpConfig(max_iters=2))
    assert res.boxes == [Box(1, 1, 1, 2), Box(3, 3, 0, 0), Box(3, 3, 3, 3)]
    # one entry per pass: the full-axis projection, then both row-band candidates
    assert res.projection_cells == [16, 4 + 4]
    assert len(res.projection_cells) == res.iterations


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_default_projection_equals_occupancy(data):
    """At the default DAC point a line trips iff it holds at least one 1."""
    h = data.draw(st.integers(1, 12))
    w = data.draw(st.integers(1, 12))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=h * w, max_size=h * w))
    f = BinaryFrame(np.array(bits, dtype=np.uint8).reshape(h, w))
    got = line_trips(f.pixels.sum(axis=1), ProjectionConfig())
    assert np.array_equal(got, f.pixels.sum(axis=1) > 0)


def test_high_vref_needs_more_charge():
    cfg = ProjectionConfig(dac_code=15)  # vref == 1.0, unreachable
    f = frame_of("##\n##")
    assert not line_trips(f.pixels.sum(axis=1), cfg).any()
    assert iss(f, RpConfig(projection=cfg)).boxes == []


def test_runs_from_bits():
    assert runs_from_bits([0, 1, 1, 0, 1]) == [(1, 2), (4, 4)]
    assert runs_from_bits([1, 1, 1]) == [(0, 2)]
    assert runs_from_bits([0, 0]) == []
    assert runs_from_bits([]) == []


# --- Box


def test_box_geometry_and_validation():
    b = Box(2, 5, 3, 3)
    assert (b.height, b.width, b.area) == (4, 1, 4)
    assert union(b, Box(0, 1, 7, 9)) == Box(0, 5, 3, 9)
    with pytest.raises(ValueError):
        Box(3, 2, 0, 0)
    with pytest.raises(ValueError):
        Box(0, 0, -1, 0)


def test_box_gaps():
    a = Box(0, 3, 0, 3)
    assert col_gap(a, Box(0, 3, 6, 9)) == 2
    assert col_gap(a, Box(0, 3, 4, 9)) == 0  # adjacent, no free line
    assert row_gap(a, Box(2, 8, 0, 3)) == 0  # overlapping
    assert row_gap(a, Box(9, 9, 0, 3)) == 5


def test_boxes_json_roundtrip_and_order():
    boxes = [Box(5, 6, 0, 1), Box(0, 1, 9, 9), Box(0, 3, 2, 4)]
    text = boxes_to_json(boxes)
    back = boxes_from_json(text)
    assert back == sorted(boxes, key=lambda b: (b.r0, b.c0, b.r1, b.c1))
    assert '"x0"' in text and '"y0"' in text and text.endswith("\n")


json_box_strategy = st.tuples(*[st.integers(0, 5000)] * 4).map(
    lambda t: Box(min(t[:2]), max(t[:2]), min(t[2:]), max(t[2:])))


@settings(max_examples=200, deadline=None)
@given(boxes=st.lists(json_box_strategy, max_size=12))
@example(boxes=[])
def test_boxes_to_json_matches_json_dumps(boxes):
    """The writer's text is byte-equal to the json module's indent=2 layout."""
    ordered = sorted(boxes, key=lambda b: (b.r0, b.c0, b.r1, b.c1))
    objs = [{"x0": b.c0, "y0": b.r0, "x1": b.c1, "y1": b.r1} for b in ordered]
    assert boxes_to_json(boxes) == json.dumps(objs, indent=2) + "\n"


# --- iterative search


def test_iss_empty_frame_single_projection():
    res = iss(BinaryFrame.zeros(16, 16), RpConfig())
    assert res.boxes == []
    assert res.iterations == 1
    assert trace_cycles(res.trace) == 8
    assert res.projection_cells == [256]
    assert len(res.projection_cells) == res.iterations


def test_iss_single_object_two_iterations():
    f = BinaryFrame.zeros(16, 16)
    f.pixels[3:7, 5:11] = 1
    res = iss(f, RpConfig())
    assert res.boxes == [Box(3, 6, 5, 10)]
    assert res.iterations == 2
    assert trace_cycles(res.trace) == 16
    # region projection senses only the row-band candidate
    assert res.projection_cells == [256, 4 * 16]
    assert len(res.projection_cells) == res.iterations


def test_iss_two_diagonal_objects():
    f = BinaryFrame.zeros(24, 24)
    f.pixels[0:4, 0:4] = 1
    f.pixels[8:12, 8:12] = 1
    res = iss(f, RpConfig())
    assert res.boxes == [Box(0, 3, 0, 3), Box(8, 11, 8, 11)]
    assert trace_cycles(res.trace) == 24


def test_iss_row_band_sharing_needs_third_iteration():
    """Two objects in one row band plus one below: counts 2 -> 3 -> 3."""
    f = BinaryFrame.zeros(16, 16)
    f.pixels[0:4, 0:4] = 1
    f.pixels[0:4, 8:12] = 1
    f.pixels[8:12, 0:4] = 1
    res = iss(f, RpConfig())
    assert res.iterations == 3
    assert sorted(res.boxes, key=lambda b: (b.r0, b.c0)) == [
        Box(0, 3, 0, 3),
        Box(0, 3, 8, 11),
        Box(8, 11, 0, 3),
    ]
    # 1 full-axis + 2 candidates refined + 3 candidates re-checked
    assert res.trace.counts.get(FULL_AXIS_PROJECTION, 0) == 1
    assert res.trace.counts.get(REGION_PROJECTION, 0) == 5


def test_iss_refinement_respects_candidate_extent():
    """A candidate's re-projection must not see other objects' rows."""
    # two boxes share columns; the right band also holds a second object
    f = BinaryFrame.zeros(20, 20)
    f.pixels[2:6, 2:6] = 1
    f.pixels[2:6, 10:14] = 1
    f.pixels[12:16, 10:14] = 1
    res = iss(f, RpConfig())
    assert sorted(res.boxes, key=lambda b: (b.r0, b.c0)) == [
        Box(2, 5, 2, 5),
        Box(2, 5, 10, 13),
        Box(12, 15, 10, 13),
    ]


def test_iss_iteration_cap():
    f = BinaryFrame.zeros(16, 16)
    f.pixels[0:4, 0:4] = 1
    f.pixels[0:4, 8:12] = 1
    f.pixels[8:12, 0:4] = 1
    res = iss(f, RpConfig(max_iters=2))
    assert res.iterations == 2
    # stopped before the column split resolved the top band
    assert len(res.boxes) == 3 or len(res.boxes) == 2


def _short_count_stops(frames: list[BinaryFrame], cfg: RpConfig) -> tuple[int, int]:
    """(searches stopped by the count rule, those whose boxes another pass would change)."""
    stopped = short = 0
    for f in frames:
        res = iss(f, cfg)
        if not len(res.candidates) or res.iterations == cfg.max_iters:
            continue
        stopped += 1
        boxes = set(res.boxes)  # candidates are disjoint, so no box repeats
        for axis in ("rows", "cols"):
            if {b for box in boxes for b in refine(f.pixels, box, axis, cfg.projection)} != boxes:
                short += 1
                break
    return stopped, short


def test_count_stop_is_a_fixpoint_except_at_two_pixel_codes():
    """The search stops when the candidate count repeats, not when the boxes do.

    Where one enabled 1 trips a line (codes 0-11) that stop is a fixpoint:
    one more row or column pass changes no box. Codes 12-14 need two 1s per
    line, and a few searches stop short there. Code 15 never trips a line.
    """
    rng = np.random.default_rng(0)
    frames = []
    for _ in range(100):
        density = rng.uniform(0.05, 0.5)
        frames.append(BinaryFrame((rng.random((24, 24)) < density).astype(np.uint8)))
    want = {code: (100, 0) for code in range(12)}
    want.update({12: (83, 8), 13: (83, 8), 14: (83, 8), 15: (0, 0)})
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            assert {code: _short_count_stops(
                        frames, RpConfig(projection=ProjectionConfig(dac_code=code)))
                    for code in range(DAC_MAX + 1)} == want


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_iss_boxes_cover_all_ones(data):
    h = data.draw(st.integers(4, 20))
    w = data.draw(st.integers(4, 20))
    density = data.draw(st.floats(0.0, 0.4))
    seed = data.draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    f = BinaryFrame((rng.random((h, w)) < density).astype(np.uint8))
    res = iss(f, RpConfig())
    covered = np.zeros((h, w), dtype=bool)
    for b in res.boxes:
        assert 0 <= b.r0 <= b.r1 < h and 0 <= b.c0 <= b.c1 < w
        block = f.pixels[b.r0:b.r1 + 1, b.c0:b.c1 + 1]
        assert block.any()  # no empty proposals
        covered[b.r0:b.r1 + 1, b.c0:b.c1 + 1] = True
    assert not (f.pixels.astype(bool) & ~covered).any()


def assert_same_search(frame: BinaryFrame, cfg: RpConfig) -> None:
    """Every package kernel's search equals the per-candidate reference."""
    want = reference_iss(frame, cfg)
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            assert_same_result(iss(frame, cfg), want)


def assert_same_result(got, want) -> None:
    assert got.candidates.dtype == want.candidates.dtype
    assert got.candidates.shape == want.candidates.shape
    assert (got.candidates == want.candidates).all()
    assert got.boxes == want.boxes
    assert got.iterations == want.iterations
    assert got.trace == want.trace
    assert got.projection_cells == want.projection_cells
    assert len(got.projection_cells) == got.iterations


frame_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)


@settings(max_examples=200, deadline=None)
@given(
    shape=frame_shapes,
    density=st.floats(0.0, 0.5),
    seed=st.integers(0, 10**6),
    dac_code=st.integers(0, DAC_MAX),
    max_iters=st.integers(2, 16),
    edge=st.sampled_from(["none", "last_row", "last_col", "both"]),
)
def test_batched_search_matches_reference(shape, density, seed, dac_code, max_iters, edge):
    """The batched search equals the per-candidate loop in every field it reports."""
    h, w = shape
    rng = np.random.default_rng(seed)
    pixels = (rng.random((h, w)) < density).astype(np.uint8)
    # a run that ends on the last row or column, where a line range meets the frame edge
    if edge in ("last_row", "both"):
        pixels[-1, rng.integers(0, w):] = 1
    if edge in ("last_col", "both"):
        pixels[rng.integers(0, h):, -1] = 1
    cfg = RpConfig(max_iters=max_iters, projection=ProjectionConfig(dac_code=dac_code))
    assert_same_search(BinaryFrame(pixels), cfg)


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(["row", "column", "pixel"]).flatmap(
        lambda kind: st.just((1, 1)) if kind == "pixel" else st.integers(1, 40).map(
            lambda n: (1, n) if kind == "row" else (n, 1))),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
    past_clamp=st.integers(0, 3),
    data=st.data(),
)
def test_thin_frames_match_reference_at_every_dac_code(shape, density, seed, past_clamp, data):
    """1xN, Nx1 and one-pixel frames, at every DAC code, with max_iters from 2 up to the
    compiled search's clamp of 2 * (set pixels) + 2 and a few past it."""
    pixels = (np.random.default_rng(seed).random(shape) < density).astype(np.uint8)
    clamp = 2 * int(pixels.sum()) + 2
    max_iters = data.draw(st.integers(2, clamp)) + past_clamp
    for code in range(DAC_MAX + 1):
        cfg = RpConfig(max_iters=max_iters, projection=ProjectionConfig(dac_code=code))
        assert_same_search(BinaryFrame(pixels), cfg)


def test_iss_ignores_ones_on_lines_that_did_not_trip():
    """At dac_code 12 a line needs two 1s: the lone 1 in row 0 must not trip column 1."""
    f = frame_of(
        """
        .#
        ##
        """
    )
    cfg = RpConfig(projection=ProjectionConfig(dac_code=12))
    res = iss(f, cfg)
    assert res.boxes == []
    assert res.projection_cells == [4, 2]
    assert len(res.projection_cells) == res.iterations
    assert_same_search(f, cfg)


def test_search_returns_candidates_in_pass_order():
    """A staircase: the column pass finds the lower-left step first, so the
    candidates keep that order, and only the boxes read from them are sorted.

    The whole-frame row pass finds one candidate, and the search must go on
    past it: the column pass splits it in two and the next row pass keeps
    two, so the search stops after three passes, of which the last two are
    region projections (one candidate, then two).
    """
    pixels = np.zeros((10, 15), dtype=np.uint8)
    pixels[0:5, 10:15] = 1
    pixels[5:10, 0:5] = 1
    frame = BinaryFrame(pixels)
    in_pass_order = [[5, 9, 0, 4], [0, 4, 10, 14]]
    boxes = [Box(0, 4, 10, 14), Box(5, 9, 0, 4)]

    def check(res):
        assert res.candidates.tolist() == in_pass_order
        assert res.iterations == 3
        assert res.trace.counts.get(REGION_PROJECTION, 0) == 3
        assert res.projection_cells == [150, 150, 100]

    check(reference_iss(frame, RpConfig()))
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            res = iss(frame, RpConfig())
            check(res)
            assert res.boxes == boxes
            assert EvalPipeline(restore=False, consolidate=False).propose(frame).boxes == boxes


def test_batched_search_matches_reference_on_noisy_corpus(monkeypatch):
    """Noisy, fragmented 320x240 frames: hundreds of candidates per pass. A compiled
    search that declines a frame (returns -1) leaves it to the numpy passes."""
    scenes = generate_corpus(RunConfig(noise_density=0.01, fragment_gap=2, seed=7).synth_config(), 8)
    for scene in scenes:
        assert_same_search(scene.frame, RpConfig())
    calls = []

    def declined(*args):
        calls.append(args)
        return -1

    monkeypatch.setattr(_ckernel, "_kernels", _ckernel._Kernels(None, declined, 1))
    for scene in scenes[:2]:
        assert_same_result(iss(scene.frame, RpConfig()), reference_iss(scene.frame, RpConfig()))
    assert len(calls) == 2


def _dots(h: int, w: int) -> np.ndarray:
    """A set pixel on every second row and column: one candidate per set pixel."""
    pixels = np.zeros((h, w), dtype=np.uint8)
    pixels[::2, ::2] = 1
    return pixels


@pytest.mark.parametrize("pixels, found", [
    (np.zeros((240, 320), dtype=np.uint8), 0),
    (np.ones((240, 320), dtype=np.uint8), 1),
    (_dots(240, 320), 19_200),
    (_dots(1, 320), 160),
    (_dots(240, 1), 120),
    (np.ones((1, 320), dtype=np.uint8), 1),
    (np.ones((240, 1), dtype=np.uint8), 1),
], ids=["empty", "full", "dots", "dots_1x320", "dots_240x1", "full_1x320", "full_240x1"])
def test_search_at_its_buffer_bounds(pixels, found):
    """No set pixel, every pixel set, and as many candidates as set pixels
    (19,200 dots at 240x320), at the default and a two-pixel DAC code."""
    assert len(reference_iss(BinaryFrame(pixels), RpConfig()).candidates) == found
    for code in (7, 12):
        cfg = RpConfig(projection=ProjectionConfig(dac_code=code))
        assert_same_search(BinaryFrame(pixels), cfg)


@pytest.mark.parametrize("max_iters", [10**14, 10**19])
def test_huge_iteration_cap_runs_like_no_cap(max_iters):
    """A valid cap far beyond any search's length neither fails nor changes a result."""
    rng = np.random.default_rng(21)
    frames = [np.zeros((5, 7), dtype=np.uint8), _dots(9, 11)]
    frames += [(rng.random((24, 31)) < density).astype(np.uint8) for density in (0.05, 0.3)]
    for code in (7, 12):
        cfg = RpConfig(max_iters=max_iters, projection=ProjectionConfig(dac_code=code))
        for pixels in frames:
            assert_same_search(BinaryFrame(pixels), cfg)


def test_search_reads_pixels_in_any_memory_layout():
    """A frame built from a Fortran-order, strided, reversed, int64 or float64 array
    searches like its C-contiguous uint8 copy: a kernel must not read the raw buffer."""
    rng = np.random.default_rng(5)
    pixels = (rng.random((37, 53)) < 0.15).astype(np.uint8)
    padded = np.ones((74, 106), dtype=np.uint8)  # every cell the view skips is set
    padded[::2, ::2] = pixels
    layouts = {"fortran": np.asfortranarray(pixels), "strided": padded[::2, ::2],
               "reversed": pixels[::-1].copy()[::-1], "int64": pixels.astype(np.int64),
               "float64": np.asfortranarray(pixels, dtype=np.float64)}
    for name, layout in layouts.items():
        assert np.array_equal(layout, pixels), name
        assert not (layout.flags.c_contiguous and layout.dtype == np.uint8), name
    cfg = RpConfig()
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            want = iss(BinaryFrame(pixels), cfg)
            for name, layout in layouts.items():
                try:
                    assert_same_result(iss(BinaryFrame(layout), cfg), want)
                except AssertionError as exc:
                    raise AssertionError(f"{name} pixels: {exc}") from exc


# --- consolidation


def test_rp_update_merges_within_slot():
    a = Box(0, 3, 0, 3)
    b = Box(0, 3, 6, 9)  # column gap 2 < slot 4, row overlap
    cfg = RpConfig(size_min=1, slot_r=4, slot_c=4)
    assert rp_update(box_array([a, b]), cfg) == [(0, 3, 0, 9)]


def test_rp_update_gap_equal_to_slot_stays_split():
    a = Box(0, 3, 0, 3)
    b = Box(0, 3, 8, 11)  # column gap 4 == slot 4
    cfg = RpConfig(size_min=1, slot_r=4, slot_c=4)
    assert rp_update(box_array([a, b]), cfg) == box_rows([a, b])


def test_rp_update_needs_both_axes_within_slot():
    a = Box(0, 3, 0, 3)
    b = Box(9, 12, 0, 3)  # row gap 5 >= slot
    cfg = RpConfig(size_min=1, slot_r=4, slot_c=4)
    assert rp_update(box_array([a, b]), cfg) == box_rows([a, b])


def test_rp_update_chain_merge_reaches_fixpoint():
    boxes = [Box(0, 3, 0 + 6 * i, 3 + 6 * i) for i in range(4)]  # gaps of 2
    cfg = RpConfig(size_min=1, slot_r=4, slot_c=4)
    assert rp_update(box_array(boxes), cfg) == [(0, 3, 0, 21)]


@pytest.mark.parametrize("corner_first", [True, False])
def test_rp_update_union_reaches_box_neither_part_reaches(corner_first):
    """A merged box checks again for near boxes, whatever the arrival order."""
    a = Box(0, 3, 0, 3)
    b = Box(6, 9, 6, 9)  # row and column gaps 2 from a
    corner = Box(0, 1, 8, 9)  # column gap 4 from a, row gap 4 from b, inside a | b
    cfg = RpConfig(size_min=1, slot_r=3, slot_c=3)
    assert col_gap(corner, a) >= cfg.slot_c and row_gap(corner, b) >= cfg.slot_r
    boxes = [corner, a, b] if corner_first else [a, b, corner]
    assert rp_update(box_array(boxes), cfg) == [(0, 9, 0, 9)]
    assert reference_rp_update(boxes, cfg) == [Box(0, 9, 0, 9)]


def test_rp_update_size_filter_area_vs_max_side():
    sliver = Box(0, 0, 0, 9)  # 1x10: area 10, max side 10
    dot = Box(5, 6, 5, 6)     # 2x2: area 4, max side 2
    area_cfg = RpConfig(size_min=4, slot_r=0, slot_c=0, size_metric="area")
    side_cfg = RpConfig(size_min=4, slot_r=0, slot_c=0, size_metric="max_side")
    assert rp_update(box_array([sliver, dot]), area_cfg) == box_rows([sliver, dot])
    assert rp_update(box_array([sliver, dot]), side_cfg) == box_rows([sliver])


def test_rp_update_filters_before_merging():
    # the speck would bridge the two big boxes if it survived the size filter
    big1 = Box(0, 5, 0, 5)
    big2 = Box(0, 5, 20, 25)
    speck = Box(2, 2, 9, 9)
    cfg = RpConfig(size_min=4, slot_r=4, slot_c=4)
    assert rp_update(box_array([big1, speck, big2]), cfg) == box_rows([big1, big2])


def test_rp_update_zero_slot_never_merges_separated():
    a = Box(0, 3, 0, 3)
    b = Box(0, 3, 4, 7)  # adjacent: gap 0; slot 0 requires gap < 0, impossible
    cfg = RpConfig(size_min=1, slot_r=0, slot_c=0)
    assert rp_update(box_array([a, b]), cfg) == box_rows([a, b])


box_strategy = st.tuples(
    st.integers(0, 20), st.integers(0, 8), st.integers(0, 20), st.integers(0, 8)
).map(lambda t: Box(t[0], t[0] + t[1], t[2], t[2] + t[3]))
boxes_strategy = st.lists(box_strategy, min_size=0, max_size=8)


@settings(max_examples=60, deadline=None)
@given(boxes=boxes_strategy, perm_seed=st.integers(0, 999))
def test_rp_update_order_invariant_and_idempotent(boxes, perm_seed):
    cfg = RpConfig(size_min=2, slot_r=3, slot_c=3)
    merged = rp_update(box_array(boxes), cfg)
    rng = np.random.default_rng(perm_seed)
    shuffled = [boxes[i] for i in rng.permutation(len(boxes))]
    assert rp_update(box_array(shuffled), cfg) == merged
    assert rp_update(np.array(merged, dtype=np.int64).reshape(-1, 4), cfg) == merged


@settings(max_examples=60, deadline=None)
@given(boxes=boxes_strategy)
def test_rp_update_output_pairwise_unmergeable(boxes):
    cfg = RpConfig(size_min=1, slot_r=3, slot_c=3)
    merged = [Box(*row) for row in rp_update(box_array(boxes), cfg)]
    for a, b in itertools.combinations(merged, 2):
        assert row_gap(a, b) >= cfg.slot_r or col_gap(a, b) >= cfg.slot_c


@settings(max_examples=300, deadline=None)
@given(
    boxes=st.lists(box_strategy, max_size=14),
    size_min=st.integers(0, 20),
    slot_r=st.integers(0, 6),
    slot_c=st.integers(0, 6),
    size_metric=st.sampled_from(["area", "max_side"]),
    perm_seed=st.integers(0, 999),
)
@example(boxes=[], size_min=0, slot_r=0, slot_c=0, size_metric="area", perm_seed=0)
@example(boxes=[], size_min=0, slot_r=6, slot_c=6, size_metric="max_side", perm_seed=0)
def test_rp_update_matches_reference(boxes, size_min, slot_r, slot_c, size_metric, perm_seed):
    """The array consolidation equals the plain Box-list one, in any input order,
    as tuples of Python ints."""
    cfg = RpConfig(size_min=size_min, slot_r=slot_r, slot_c=slot_c, size_metric=size_metric)
    want = box_rows(reference_rp_update(boxes, cfg))
    got = rp_update(box_array(boxes), cfg)
    assert got == want
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in got)
    shuffled = [boxes[i] for i in np.random.default_rng(perm_seed).permutation(len(boxes))]
    assert rp_update(box_array(shuffled), cfg) == want


# --- full proposal step


def test_region_propose_trace_composition():
    f = BinaryFrame.zeros(24, 24)
    for i in range(3):
        f.pixels[8 * i:8 * i + 4, 8 * i:8 * i + 4] = 1
    res = region_propose(f, RpConfig())
    assert len(res.boxes) == 3
    assert res.search.boxes == res.boxes
    assert trace_cycles(res.trace) == 42
    assert res.trace.counts.get(CONTROLLER_OBJECT, 0) == 3
    assert res.trace.counts.get(CONTROLLER_FIXED, 0) == 1


def test_region_propose_controller_counts_raw_detections():
    """Consolidation may merge boxes, but the controller paid per raw detection."""
    f = BinaryFrame.zeros(16, 16)
    f.pixels[0:4, 0:4] = 1
    f.pixels[0:4, 6:10] = 1  # gap 2 < default slot 4
    res = region_propose(f, RpConfig())
    assert len(res.search.boxes) == 2
    assert res.boxes == [Box(0, 3, 0, 9)]
    assert res.trace.counts.get(CONTROLLER_OBJECT, 0) == 2


def test_region_propose_empty_frame_has_no_object_entries():
    res = region_propose(BinaryFrame.zeros(8, 8), RpConfig())
    assert res.boxes == []
    assert res.trace.counts.get(CONTROLLER_OBJECT, 0) == 0
    assert res.trace.entries == [(FULL_AXIS_PROJECTION, 1), (CONTROLLER_FIXED, 1)]
    assert trace_cycles(res.trace) == 12


def test_rp_config_validation():
    with pytest.raises(ConfigError):
        RpConfig(max_iters=1)
    with pytest.raises(ConfigError):
        RpConfig(size_min=-1)
    with pytest.raises(ConfigError):
        RpConfig(slot_r=-2)
    with pytest.raises(ConfigError):
        RpConfig(size_metric="volume")
