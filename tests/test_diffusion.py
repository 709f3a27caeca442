"""Charge-sharing dynamics: one independent reference model plus frozen cases."""

import itertools
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import diffusion_reference as reference
from conftest import KERNELS, frame_of, kernel_in_use, needs_cc
from cramsim import _ckernel, diffusion
from cramsim.config import RunConfig
from cramsim.diffusion import (
    DiffusionConfig,
    _embed,
    apply_pulses,
    blank_frame_detect,
    diffuse_substep,
    probe_diffusion_speed,
    restore_image,
    threshold_restore,
)
from cramsim.errors import ConfigError, GuardError
from cramsim.grid import AnalogState, BinaryFrame
from cramsim.synth import generate_corpus


def reference_substep(volts: np.ndarray, coupling: float) -> np.ndarray:
    """Scalar-loop model of one update: v += c * sum_nbr (v_nbr - v).

    Deliberately structured nothing like the vectorized implementation:
    per-cell Python loops with explicit boundary tests.
    """
    h, w = volts.shape
    out = volts.copy()
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w:
                    acc += volts[rr, cc] - volts[r, c]
            out[r, c] = volts[r, c] + coupling * acc
    return out


@needs_cc
def test_compiled_kernel_loads_where_a_compiler_exists():
    assert _ckernel.kernels() is not None


volt_grids = st.integers(2, 9).flatmap(
    lambda h: st.integers(2, 9).flatmap(
        lambda w: st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=h * w, max_size=h * w
        ).map(lambda vals: np.array(vals).reshape(h, w))
    )
)


@settings(max_examples=60, deadline=None)
@given(volts=volt_grids, coupling=st.floats(0.01, 0.25))
def test_substep_matches_reference_model(volts, coupling):
    state = AnalogState(volts, ring=0)
    got = diffuse_substep(state, coupling).volts
    assert np.allclose(got, reference_substep(volts, coupling), atol=1e-12, rtol=0.0)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_zero_borders(stencil) -> None:
    for buffer in (stencil._cur, stencil._nxt):
        grid = buffer.reshape(-1, stencil.shape[1] + 2)
        for border in (grid[0], grid[-1], grid[:, 0], grid[:, -1]):
            assert not border.any()


def assert_matches_reference(frame: BinaryFrame, cfg: DiffusionConfig, ring: int) -> None:
    before = frame.pixels.copy()
    want = reference.apply_pulses(frame, cfg, ring)
    ringed = replace(cfg, ring=ring)
    got = apply_pulses(frame, ringed)
    assert got.ring == ring
    assert_same_bits(got.volts, want.volts)
    assert_same_bits(restore_image(frame, ringed).pixels,
                     reference.restore_image(frame, cfg, ring).pixels)
    assert np.array_equal(frame.pixels, before)


frame_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)

diffusion_configs = st.builds(
    DiffusionConfig,
    alpha=st.floats(0.001, 0.25),
    substeps_per_pulse=st.integers(1, 10),
    amplitude=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    pulses=st.integers(1, 3),
    vth=st.floats(0.05, 0.95),
)


@settings(max_examples=200, deadline=None)
@given(
    shape=frame_shapes,
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
    ring=st.integers(0, 2),
    cfg=diffusion_configs,
)
def test_flat_kernel_matches_reference(shape, density, seed, ring, cfg):
    """Every restore kernel, and the flat substep, equal the padded per-substep kernel
    bit for bit."""
    rng = np.random.default_rng(seed)
    frame = BinaryFrame((rng.random(shape) < density).astype(np.uint8))
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            assert_matches_reference(frame, cfg, ring)
    volts = rng.random((shape[0] + 2 * ring, shape[1] + 2 * ring))
    state = AnalogState(volts.copy(), ring)
    coupling = max(cfg.coupling, 0.001)
    got = diffuse_substep(state, coupling)
    assert got.ring == ring
    assert_same_bits(got.volts, reference.substep(state, coupling).volts)
    assert_same_bits(state.volts, volts)


def test_flat_kernel_matches_reference_on_noisy_corpus():
    """Noisy, fragmented 320x240 frames at the default config, rings 0 to 2."""
    scenes = generate_corpus(RunConfig(noise_density=0.01, fragment_gap=2, seed=7).synth_config(), 8)
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            for scene in scenes:
                for ring in (0, 1, 2):
                    assert_matches_reference(scene.frame, DiffusionConfig(), ring)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                    st.tuples(st.integers(1, 12), st.just(1))),
    substeps=st.integers(1, 9),
    coupling=st.floats(0.001, 0.25),
    seed=st.integers(0, 10**6),
)
def test_thin_grids_and_buffer_swap_parity(shape, substeps, coupling, seed):
    """1-wide rows and columns at odd and even substep counts.

    After the run the grid holds the reference's last substep and the other
    buffer the one before it, both inside an all-zero border, so the buffers
    swapped once per substep.
    """
    volts = np.random.default_rng(seed).random(shape)
    states = [AnalogState(volts, ring=0)]
    for _ in range(substeps):
        states.append(reference.substep(states[-1], coupling))
    stencil = _embed(volts, 0)
    stencil.run(coupling, substeps)
    cur, nxt = (b.reshape(-1, shape[1] + 2) for b in (stencil._cur, stencil._nxt))
    assert_same_bits(cur[1:-1, 1:-1], states[-1].volts)
    if substeps > 1:
        assert_same_bits(nxt[1:-1, 1:-1], states[-2].volts)
    assert_zero_borders(stencil)


def test_cells_at_exactly_vth_restore_to_0():
    """Every kernel thresholds strictly: cells that end exactly at vth restore to 0, within
    the compiled threshold's 16-cell blocks and in its tail."""
    # One row, no ring, one substep at coupling 0.25: a lone 1 keeps exactly 0.5, and a 0
    # between two 1s receives exactly 0.5. 36 cells make two blocks and a tail of 4.
    frame = BinaryFrame(np.array([[1, 0, 1, 0, 0] * 7 + [1]], np.uint8))
    cfg = DiffusionConfig(alpha=0.25, substeps_per_pulse=1, vth=0.5, ring=0)
    volts = reference.apply_pulses(frame, cfg, 0).volts
    assert (volts == 0.5).sum() == 20 and (volts > 0.5).sum() == 2
    want = reference.restore_image(frame, cfg, 0).pixels
    assert want.sum() == 2
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            assert_same_bits(restore_image(frame, cfg).pixels, want)


def random_frame(rng: np.random.Generator, shape: tuple[int, int]) -> BinaryFrame:
    return BinaryFrame((rng.random(shape) < 0.4).astype(np.uint8))


# --- edges of both restore paths, and the bound path of the compiled restore


def edge_shape(kind: str, side: int, substeps: int, ring: int) -> tuple[int, int]:
    """A frame shape of one kind: 1 x side, side x 1, one pixel, or a frame whose grid
    sides (the ring included) are 2 substeps + 1 or 2 substeps + 2, where the compiled
    restore starts to take its bound path."""
    if kind == "row":
        return 1, side
    if kind == "column":
        return side, 1
    if kind == "pixel":
        return 1, 1
    switch = 2 * substeps + 1 + side % 2 - 2 * ring
    return max(switch, 1), max(switch + side % 3 - 1, 1)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["row", "column", "pixel", "switch"]),
    side=st.integers(1, 30),
    seed=st.integers(0, 10**6),
    ring=st.integers(0, 4),
    cfg=st.builds(DiffusionConfig, alpha=st.floats(0.05, 0.25),
                  substeps_per_pulse=st.integers(1, 9),
                  amplitude=st.sampled_from([0.0, 0.5, 1.0]), pulses=st.integers(1, 3),
                  vth=st.floats(0.05, 0.95)),
)
def test_edge_frames_match_reference(kind, side, seed, ring, cfg):
    """1xN, Nx1 and one-pixel frames, grids one cell either side of where the bound path
    starts, rings up to 4 (wider than the frame too), 1 to 3 pulses, 1 to 9 substeps and
    amplitude 0: every kernel's charges and bits equal the reference's."""
    shape = edge_shape(kind, side, cfg.substeps_per_pulse, ring)
    frame = BinaryFrame((np.random.default_rng(seed).random(shape) < 0.5).astype(np.uint8))
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            assert_matches_reference(frame, cfg, ring)


def block_frame(rng: np.random.Generator, shape: tuple[int, int], density: float) -> BinaryFrame:
    """Salt noise with up to three solid rectangles over it."""
    pixels = (rng.random(shape) < density).astype(np.uint8)
    for _ in range(int(rng.integers(0, 4))):
        r, c = int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1]))
        pixels[r:r + int(rng.integers(1, 24)), c:c + int(rng.integers(1, 24))] = 1
    return BinaryFrame(pixels)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    extra=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    density=st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9]),
    ring=st.integers(0, 4),
    cfg=st.builds(DiffusionConfig, alpha=st.floats(0.01, 0.25),
                  substeps_per_pulse=st.integers(1, 12), amplitude=st.sampled_from([0.5, 1.0]),
                  pulses=st.integers(1, 3), vth=st.floats(0.05, 0.95)),
)
def test_bound_path_matches_reference(seed, extra, density, ring, cfg):
    """On grids of at least 2S + 2 cells a side, restore_image takes most bits from the
    charge bound; they equal the reference's. Each case runs on a thread that has just
    restored a frame of another size and then one of this size at other values, so the
    workspace holds stale charges everywhere."""
    rng = np.random.default_rng(seed)
    least = max(2 * cfg.substeps_per_pulse + 2 - 2 * ring, 1)
    shape = (least + extra[0], least + extra[1])
    frame = block_frame(rng, shape, density)
    cfg = replace(cfg, ring=ring)
    want = reference.restore_image(frame, cfg, ring).pixels
    other = replace(cfg, substeps_per_pulse=cfg.substeps_per_pulse % 5 + 1,
                    vth=1.0 - cfg.vth, pulses=cfg.pulses % 3 + 1)
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            restore_image(block_frame(rng, (shape[0] + 1, shape[1]), 0.3), cfg)
            restore_image(block_frame(rng, shape, 0.5), other)
            assert_same_bits(restore_image(frame, cfg).pixels, want)


def test_bound_path_senses_cells_exactly_at_vth():
    """At coupling 0.25, one to three substeps leave cells of this 9x20 frame at exactly
    0.5 (five of them at three substeps, where the bound path runs), and the bound never
    decides such a cell: every kernel senses it as 0, as the reference does."""
    rows = [[1, 0, 1, 0, 0] * 4, [0, 1, 0, 0, 1] * 4, [1, 1, 0, 1, 0] * 4] * 3
    frame = BinaryFrame(np.array(rows, np.uint8))
    for substeps in (1, 2, 3):
        cfg = DiffusionConfig(alpha=0.25, substeps_per_pulse=substeps, vth=0.5, ring=0)
        volts = reference.apply_pulses(frame, cfg, 0).volts
        want = reference.restore_image(frame, cfg, 0).pixels
        assert (volts == 0.5).sum() >= 5
        for kernel in KERNELS:
            with kernel_in_use(kernel):
                assert_same_bits(restore_image(frame, cfg).pixels, want)


def touched_cells(frame: BinaryFrame, cfg: DiffusionConfig,
                  analog: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The compiled restore on buffers whose grid cells start as NaN: its bits, per buffer
    the grid cells that hold a number afterwards, and the grid of the buffer that the call
    names as the last pulse's (cur, always, for a bits-only call)."""
    h, w = frame.pixels.shape
    rows, cols = h + 2 * cfg.ring, w + 2 * cfg.ring
    cur, nxt = np.zeros((rows + 2, cols + 2)), np.zeros((rows + 2, cols + 2))
    cur[1:-1, 1:-1] = nxt[1:-1, 1:-1] = np.nan
    bits = np.empty((h, w), np.uint8)
    swapped = _ckernel.kernels().restore(frame.pixels.ctypes.data, h, w, cfg.ring,
                                         cur.ctypes.data, nxt.ctypes.data, cfg.coupling,
                                         cfg.substeps_per_pulse, cfg.pulses, cfg.vth,
                                         bits.ctypes.data, analog)
    assert swapped in ((0, 1) if analog else (0,))
    for buffer in (cur, nxt):  # the borders stay 0
        assert not buffer[[0, -1]].any() and not buffer[:, [0, -1]].any()
    touched = np.stack([~np.isnan(b[1:-1, 1:-1]) for b in (cur, nxt)])
    return bits, touched, (nxt if swapped else cur)[1:-1, 1:-1]


def within(mask: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The cells at most rows rows and cols columns from a cell of mask."""
    return ndimage.binary_dilation(mask, np.ones((2 * rows + 1, 2 * cols + 1), bool))


@needs_cc
def test_bound_decides_blank_speck_and_block_frames():
    """All-zero and lone-speck frames load and diffuse no cell. Around a solid block, only
    tiles (4 x 8 cells) whose reach, the tile grown by S rounded up to whole tiles, meets
    the block's border are in doubt, and the cells loaded and diffused for them lie within
    S more cells (rounded up to tiles) of those. Every tile with cells on both sides of the
    border is in doubt, and no cell in doubt senses one of the stale NaNs."""
    cfg = DiffusionConfig()
    specks = BinaryFrame.zeros(96, 64)
    specks.pixels[5::20, 7::24] = 1
    for frame in (BinaryFrame.zeros(96, 64), specks):
        bits, touched, _ = touched_cells(frame, cfg)
        assert not bits.any() and not touched.any()

    # At 5 and 9 substeps a band of tiles can lie exactly S cells from the nearest
    # undecided one; inside a stripe as wide as the frame, its cells reach the stripe's
    # undecided cells that sense 1.
    for substeps, ring, (h, w), (r0, r1, c0, c1) in (
            (3, 1, (64, 96), (21, 45, 29, 70)), (3, 0, (64, 96), (8, 40, 3, 90)),
            (4, 3, (40, 50), (4, 36, 11, 12)), (5, 1, (64, 96), (21, 45, 29, 70)),
            (5, 0, (64, 96), (16, 48, 0, 96)), (8, 1, (160, 200), (30, 130, 30, 170)),
            (9, 1, (160, 200), (31, 129, 27, 170)), (9, 0, (120, 120), (36, 84, 0, 120))):
        frame = BinaryFrame.zeros(w, h)
        frame.pixels[r0:r1, c0:c1] = 1
        cfg = DiffusionConfig(substeps_per_pulse=substeps, ring=ring)
        bits, touched, _ = touched_cells(frame, cfg)
        assert_same_bits(bits, reference.restore_image(frame, cfg, ring).pixels)
        block = np.pad(frame.pixels, ring).astype(bool)
        border = block ^ ndimage.binary_erosion(block, border_value=1)  # cells next to a 0
        border |= ndimage.binary_dilation(block) & ~block  # and the 0s next to the block
        rows, cols = 4 * -(-substeps // 4) + 3, 8 * -(-substeps // 8) + 7  # a tile's reach
        touched = touched.any(axis=0)
        assert not (touched & ~within(border, 2 * rows, 2 * cols)).any()
        assert touched.mean() < 0.75
        # the tiles that hold cells on both sides of the border: all loaded
        tiles = np.pad(block, ((0, -len(block) % 4), (0, -block.shape[1] % 8)))
        tiles = tiles.reshape(tiles.shape[0] // 4, 4, -1, 8)
        mixed = np.kron(tiles.any(axis=(1, 3)) & ~tiles.all(axis=(1, 3)), np.ones((4, 8), bool))
        assert touched[mixed[:len(block), :block.shape[1]]].all()


@needs_cc
def test_every_tile_is_in_doubt_where_the_bound_does_not_apply():
    """Analog calls, and bits-only calls at 1 and 2 substeps, at amplitude 0 and on a grid
    under 2S + 2 a side, load, diffuse and sense every cell, on buffers whose grid cells
    start as NaN: each compiled build gives the reference's bits and leaves the borders 0,
    and an analog call's named buffer holds the reference's voltages, no NaN."""
    rng = np.random.default_rng(29)
    wide, flat = block_frame(rng, (30, 41), 0.2), block_frame(rng, (13, 41), 0.2)
    analog = [DiffusionConfig(), DiffusionConfig(pulses=2, substeps_per_pulse=3, ring=0),
              DiffusionConfig(pulses=3, substeps_per_pulse=4, ring=2),
              DiffusionConfig(pulses=2, amplitude=0.0)]
    bits_only = [DiffusionConfig(substeps_per_pulse=1),
                 DiffusionConfig(pulses=2, substeps_per_pulse=2),
                 DiffusionConfig(pulses=2, amplitude=0.0, ring=3)]
    cases = [(wide, cfg, True) for cfg in analog] + [(wide, cfg, False) for cfg in bits_only]
    # 13 + 2 rows: under 2S + 2 = 18 at S = 8
    cases += [(flat, DiffusionConfig(pulses=p), False) for p in (1, 2)]
    for kernel in [k for k in KERNELS if k != "numpy"]:
        with kernel_in_use(kernel):
            for frame, cfg, wants_analog in cases:
                bits, touched, grid = touched_cells(frame, cfg, wants_analog)
                assert_same_bits(bits, reference.restore_image(frame, cfg, cfg.ring).pixels)
                assert touched[0].all(), cfg  # every pulse loads every cell
                if wants_analog:
                    assert not np.isnan(grid).any()
                    assert_same_bits(grid, reference.apply_pulses(frame, cfg, cfg.ring).volts)


def test_restore_that_declines_runs_the_numpy_loop(monkeypatch):
    """A compiled restore that returns -1 (its scratch could not be allocated) leaves the
    pulse train to the numpy loop, which gives the reference's bits and voltages, also on
    a workspace that an earlier restore left dirty."""
    calls = []

    def declined(*args):
        calls.append(args)
        return -1

    monkeypatch.setattr(_ckernel, "_kernels", _ckernel._Kernels(declined, None, 1, None))
    rng = np.random.default_rng(30)
    for cfg in (DiffusionConfig(), DiffusionConfig(pulses=2, substeps_per_pulse=3, ring=0),
                DiffusionConfig(amplitude=0.0, ring=2)):
        frame = block_frame(rng, (24, 33), 0.2)
        assert_same_bits(restore_image(frame, cfg).pixels,
                         reference.restore_image(frame, cfg, cfg.ring).pixels)
        assert_same_bits(apply_pulses(frame, cfg).volts,
                         reference.apply_pulses(frame, cfg, cfg.ring).volts)
        assert_zero_borders(diffusion._workspace.stencil)
    assert len(calls) == 6 and [args[-1] for args in calls] == [False, True] * 3


def test_one_call_restore_matches_numpy_and_reference():
    """Each compiled variant's one-call restore equals the numpy steps and the reference.

    Thin and full-size frames, ring widths 0, 1 and 3, one to three pulses,
    odd and even substep counts (so the result ends in either buffer) and
    amplitude 0; both buffers keep an all-zero border throughout.
    """
    rng = np.random.default_rng(17)
    for shape in ((1, 1), (1, 23), (23, 1), (240, 320)):
        for ring in (0, 1, 3):
            for pulses in (1, 2, 3):
                for substeps, amplitude in ((7, 1.0), (8, 0.5), (5, 0.0)):
                    frame = random_frame(rng, shape)
                    cfg = DiffusionConfig(substeps_per_pulse=substeps, amplitude=amplitude,
                                          pulses=pulses, ring=ring)
                    want_volts = reference.apply_pulses(frame, cfg, ring).volts
                    want_bits = reference.restore_image(frame, cfg, ring).pixels
                    for kernel in KERNELS:
                        with kernel_in_use(kernel):
                            assert_same_bits(restore_image(frame, cfg).pixels, want_bits)
                            assert_zero_borders(diffusion._workspace.stencil)
                            assert_same_bits(apply_pulses(frame, cfg).volts, want_volts)
                            assert_zero_borders(diffusion._workspace.stencil)


def test_restore_reads_pixels_in_any_memory_layout():
    """A frame built from a Fortran-order, strided, reversed, int64 or
    float64 array restores like its C-contiguous uint8 copy: a kernel must
    not read the raw buffer."""
    rng = np.random.default_rng(5)
    pixels = (rng.random((37, 53)) < 0.4).astype(np.uint8)
    padded = np.ones((74, 106), dtype=np.uint8)  # every cell the view skips is set
    padded[::2, ::2] = pixels
    layouts = {"fortran": np.asfortranarray(pixels), "strided": padded[::2, ::2],
               "reversed": pixels[::-1].copy()[::-1], "int64": pixels.astype(np.int64),
               "float64": np.asfortranarray(pixels, dtype=np.float64)}
    for name, layout in layouts.items():
        assert np.array_equal(layout, pixels), name
        assert not (layout.flags.c_contiguous and layout.dtype == np.uint8), name
    cfg = DiffusionConfig(substeps_per_pulse=5, pulses=2)
    want_bits = reference.restore_image(BinaryFrame(pixels), cfg).pixels
    want_volts = reference.apply_pulses(BinaryFrame(pixels), cfg).volts
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            for name, layout in layouts.items():
                frame = BinaryFrame(layout)
                try:
                    restored = restore_image(frame, cfg).pixels
                    assert restored.flags.c_contiguous
                    assert_same_bits(restored, want_bits)
                    assert_same_bits(apply_pulses(frame, cfg).volts, want_volts)
                except AssertionError as exc:
                    raise AssertionError(f"{name} pixels: {exc}") from exc


def test_reused_workspace_never_leaks_state():
    """One thread, repeating and changing grid shapes: every result equals the reference.

    Each case runs twice in a row, so the second frame reuses the first one's
    workspace, and every returned state is checked again at the end, after
    the workspace has been overwritten many times.
    """
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            rng = np.random.default_rng(13)
            probe_cfg = DiffusionConfig()
            probe_steps = probe_diffusion_speed(8, 6, "corner", probe_cfg)
            cases = [(shape, ring) for shape in ((1, 7), (7, 1), (5, 9), (1, 1)) for ring in (0, 1, 2)]
            kept = []
            for i in rng.permutation(len(cases * 3)):
                shape, ring = cases[i % len(cases)]
                cfg = DiffusionConfig(
                    substeps_per_pulse=int(rng.integers(1, 6)),
                    amplitude=float(rng.choice([0.0, 0.5, 1.0])),
                    pulses=int(rng.integers(1, 4)),
                    ring=ring,
                )
                for _ in range(2):
                    frame = random_frame(rng, shape)
                    state, want = apply_pulses(frame, cfg), reference.apply_pulses(frame, cfg, ring)
                    assert_same_bits(state.volts, want.volts)
                    kept.append((state, want))
                    assert_same_bits(restore_image(frame, cfg).pixels,
                                     reference.restore_image(frame, cfg, ring).pixels)
                if i % 3 == 0:
                    assert probe_diffusion_speed(8, 6, "corner", probe_cfg) == probe_steps
                else:
                    analog = AnalogState(rng.random((shape[0] + 2 * ring, shape[1] + 2 * ring)), ring)
                    assert_same_bits(diffuse_substep(analog, 0.2).volts,
                                     reference.substep(analog, 0.2).volts)
            # restore_image and apply_pulses in turn, each on two frame sizes in turn
            cfg = DiffusionConfig(substeps_per_pulse=3, pulses=2)
            for step in range(8):
                frame = random_frame(rng, ((6, 11), (9, 4))[step % 2])
                if step % 4 < 2:
                    assert_same_bits(restore_image(frame, cfg).pixels,
                                     reference.restore_image(frame, cfg).pixels)
                else:
                    state, want = apply_pulses(frame, cfg), reference.apply_pulses(frame, cfg)
                    assert_same_bits(state.volts, want.volts)
                    kept.append((state, want))
            for state, want in kept:
                assert_same_bits(state.volts, want.volts)


def test_apply_pulses_returns_memory_it_owns():
    """A kept state survives later pulse trains on the same thread, one-row grids included."""
    rng = np.random.default_rng(8)
    for shape, ring in (((1, 9), 0), ((6, 5), 1)):
        cfg = DiffusionConfig(ring=ring)
        frame_a, frame_b = random_frame(rng, shape), random_frame(rng, shape)
        state_a = apply_pulses(frame_a, cfg)
        before = state_a.volts.copy()
        state_b = apply_pulses(frame_b, cfg)
        restore_image(frame_b, cfg)
        assert not np.array_equal(state_b.volts, before)
        assert_same_bits(state_a.volts, before)
        assert not np.shares_memory(state_a.volts, state_b.volts)


def test_results_do_not_depend_on_worker_count():
    """Mixed-shape frames through the evaluate pool give the reference's bits at 1, 2 and 4 workers.

    The frames are large enough that numpy releases the GIL inside a substep
    (ctypes releases it for every compiled call), and the short switch
    interval interleaves the threads finely, so a workspace shared between
    pool threads would most likely show as a mismatch.
    """
    from cramsim.oracle import _pool_map

    rng = np.random.default_rng(21)
    shapes = ((1, 90), (90, 1), (60, 48), (48, 60), (60, 48), (3, 3))
    items = [(random_frame(rng, shapes[int(rng.integers(len(shapes)))]),
              DiffusionConfig(pulses=2, ring=int(rng.integers(0, 3)))) for _ in range(40)]

    def run(item):
        frame, cfg = item
        return apply_pulses(frame, cfg).volts, restore_image(frame, cfg).pixels

    want = [(reference.apply_pulses(frame, cfg, cfg.ring).volts,
             reference.restore_image(frame, cfg, cfg.ring).pixels) for frame, cfg in items]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kernel in KERNELS:
            with kernel_in_use(kernel):
                for workers in (1, 2, 4):
                    for (volts, pixels), (want_volts, want_pixels) in zip(
                            _pool_map(run, items, workers), want, strict=True):
                        assert_same_bits(volts, want_volts)
                        assert_same_bits(pixels, want_pixels)
    finally:
        sys.setswitchinterval(interval)


def test_single_center_substep_exact_values():
    """One substep at the stability limit empties the center into its 4 neighbors."""
    volts = np.zeros((3, 3))
    volts[1, 1] = 1.0
    out = diffuse_substep(AnalogState(volts, ring=0), 0.25).volts
    assert out[1, 1] == 0.0
    for r, c in ((0, 1), (1, 0), (1, 2), (2, 1)):
        assert out[r, c] == 0.25
    for r, c in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert out[r, c] == 0.0


@settings(max_examples=30, deadline=None)
@given(volts=volt_grids, coupling=st.floats(0.01, 0.25), steps=st.integers(1, 50))
def test_substeps_conserve_total_charge(volts, coupling, steps):
    total0 = volts.sum()
    state = AnalogState(volts, ring=0)
    for _ in range(steps):
        state = diffuse_substep(state, coupling)
    assert abs(state.volts.sum() - total0) <= 1e-12 * max(total0, 1.0)


@settings(max_examples=30, deadline=None)
@given(volts=volt_grids, coupling=st.floats(0.01, 0.25))
def test_substep_preserves_value_range(volts, coupling):
    # convex combination of neighbors: output stays within input bounds
    out = diffuse_substep(AnalogState(volts, ring=0), coupling).volts
    assert out.min() >= volts.min() - 1e-12
    assert out.max() <= volts.max() + 1e-12


def test_substep_equivariance_is_bit_exact():
    rng = np.random.default_rng(11)
    volts = rng.random((16, 16))
    want = AnalogState(volts, ring=0)
    for _ in range(8):
        want = reference.substep(want, 0.2)
    state = AnalogState(volts, ring=0)
    for _ in range(8):
        state = diffuse_substep(state, 0.2)
    base = state.volts
    assert_same_bits(base, want.volts)
    for xform in (np.transpose, np.flipud, np.fliplr):
        alt = AnalogState(np.ascontiguousarray(xform(volts)), ring=0)
        for _ in range(8):
            alt = diffuse_substep(alt, 0.2)
        assert np.array_equal(alt.volts, xform(base))


def test_substep_coupling_bounds():
    state = AnalogState(np.zeros((3, 3)), ring=0)
    with pytest.raises(ConfigError):
        diffuse_substep(state, 0.26)
    with pytest.raises(ConfigError):
        diffuse_substep(state, 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        DiffusionConfig(alpha=0.3)
    with pytest.raises(ConfigError):
        DiffusionConfig(alpha=0.25, amplitude=1.5)  # product over the limit
    with pytest.raises(ConfigError):
        DiffusionConfig(amplitude=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            DiffusionConfig(amplitude=bad)
    with pytest.raises(ConfigError):
        DiffusionConfig(vth=1.0)
    with pytest.raises(ConfigError):
        DiffusionConfig(substeps_per_pulse=0)
    with pytest.raises(ConfigError):
        DiffusionConfig(pulses=0)
    # the compiled restore takes both as a C long; the largest is only constructed, never run
    for name in ("substeps_per_pulse", "pulses"):
        for bad in (2**31, 2**64 + 1):
            with pytest.raises(ConfigError, match=f"{name} must be in"):
                DiffusionConfig(**{name: bad})
        assert getattr(DiffusionConfig(**{name: 2**31 - 1}), name) == 2**31 - 1
    assert DiffusionConfig(alpha=0.25, amplitude=1.0).coupling == 0.25


def test_threshold_is_strictly_greater():
    volts = np.array([[0.5, 0.500001], [0.499999, 1.0]])
    f = threshold_restore(AnalogState(volts, ring=0), DiffusionConfig(vth=0.5))
    assert f.pixels.tolist() == [[0, 1], [0, 1]]


def test_zero_amplitude_restore_is_identity():
    f = frame_of(
        """
        .#.#
        #..#
        ....
        """
    )
    cfg = DiffusionConfig(amplitude=0.0)
    assert restore_image(f, cfg) == f


def test_two_pulses_with_redigitize_compose():
    """k pulses equal k - 1 pulses, then one more pulse on the restored frame:
    the same bits, and the same charges left in the stencil. The odd
    substep count leaves each pulse's charges in the other buffer."""
    rng = np.random.default_rng(5)
    f = BinaryFrame((rng.random((20, 20)) < 0.25).astype(np.uint8))
    for pulses, ring, substeps in itertools.product((2, 3), (0, 2), (3, 8)):
        cfg = DiffusionConfig(substeps_per_pulse=substeps, pulses=pulses, ring=ring)
        fewer, once = (replace(cfg, pulses=n) for n in (pulses - 1, 1))
        for kernel in KERNELS:
            with kernel_in_use(kernel):
                before = restore_image(f, fewer)
                assert restore_image(f, cfg) == restore_image(before, once), cfg
                assert_same_bits(apply_pulses(f, cfg).volts, apply_pulses(before, once).volts)


# --- restoration behavior at the default operating point


def test_isolated_pixel_removed_hole_filled():
    f = frame_of(
        """
        ..........
        .#........
        .....#####
        .....#####
        .....##.##
        .....#####
        .....#####
        ..........
        """
    )
    out = restore_image(f, DiffusionConfig())
    assert out.pixels[1, 1] == 0
    assert out.pixels[4, 7] == 1
    # a solid core of the block survives; the speck leaves nothing behind
    assert out.pixels[2:7, 5:10].sum() >= 9
    assert out.pixels[:, :4].sum() == 0


def test_small_blob_fate_at_default_config():
    """Frozen shrink/survive behavior: 3x3 dies, 4x4 shrinks, >=5x5 keeps extent."""
    from cramsim.oracle import ccl

    for side, expect in ((3, None), (4, (11, 12, 11, 12)), (5, (10, 14, 10, 14)),
                         (8, (10, 17, 10, 17))):
        f = BinaryFrame.zeros(32, 32)
        f.pixels[10:10 + side, 10:10 + side] = 1
        comps = ccl(restore_image(f, DiffusionConfig()))
        if expect is None:
            assert comps == []
        else:
            assert len(comps) == 1
            b = comps[0].bbox
            assert (b.r0, b.r1, b.c0, b.c1) == expect


def test_blank_frame_detect():
    f = BinaryFrame.zeros(8, 8)
    assert blank_frame_detect(f)
    f.pixels[3, 3] = 1
    assert not blank_frame_detect(f)
    assert blank_frame_detect(f, max_ones=1)
    with pytest.raises(ConfigError):
        blank_frame_detect(f, max_ones=-1)


def test_restore_makes_speck_frame_blank():
    f = BinaryFrame.zeros(16, 16)
    f.pixels[4, 4] = 1
    f.pixels[10, 12] = 1
    assert blank_frame_detect(restore_image(f, DiffusionConfig()))


# --- probe


def test_probe_step_counts_frozen():
    cfg = DiffusionConfig()
    assert probe_diffusion_speed(64, 64, "center", cfg).steps_to_threshold == 9
    assert probe_diffusion_speed(64, 64, "corner", cfg).steps_to_threshold == 11
    half = DiffusionConfig(amplitude=0.5)
    assert probe_diffusion_speed(64, 64, "center", half).steps_to_threshold == 18


def test_probe_guard_and_validation(monkeypatch):
    with pytest.raises(GuardError):
        probe_diffusion_speed(64, 64, "center", DiffusionConfig(amplitude=0.0))
    # a blob that fills a grid with no ring keeps all its charge, so it never drops below vth
    monkeypatch.setattr(diffusion, "MAX_PROBE_SUBSTEPS", 100)
    with pytest.raises(GuardError, match="within 100 substeps"):
        probe_diffusion_speed(4, 4, "center", DiffusionConfig(ring=0))
    with pytest.raises(ConfigError):
        probe_diffusion_speed(64, 64, "edge", DiffusionConfig())
    with pytest.raises(ConfigError):
        probe_diffusion_speed(3, 64, "center", DiffusionConfig())
