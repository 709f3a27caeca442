"""Charge-sharing dynamics: one independent reference model plus frozen cases."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffusion_reference as reference
from conftest import frame_of
from cramsim.config import RunConfig
from cramsim.diffusion import (
    DiffusionConfig,
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
    want = reference_substep(volts, coupling)
    assert np.allclose(got, want, atol=1e-12, rtol=0.0)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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
    redigitize_between_pulses=st.booleans(),
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
    """The flat in-place kernel equals the padded per-substep kernel bit for bit."""
    rng = np.random.default_rng(seed)
    frame = BinaryFrame((rng.random(shape) < density).astype(np.uint8))
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
    for scene in scenes:
        for ring in (0, 1, 2):
            assert_matches_reference(scene.frame, DiffusionConfig(), ring)


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
    state = AnalogState(volts, ring=0)
    total0 = state.volts.sum()
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
    state = AnalogState(volts, ring=0)
    for _ in range(8):
        state = diffuse_substep(state, 0.2)
    base = state.volts
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
    """pulses=2 with re-digitizing equals running the whole pass twice."""
    rng = np.random.default_rng(5)
    f = BinaryFrame((rng.random((20, 20)) < 0.25).astype(np.uint8))
    once = DiffusionConfig(pulses=1)
    twice = DiffusionConfig(pulses=2)
    assert restore_image(f, twice) == restore_image(restore_image(f, once), once)


def test_pulses_without_redigitize_concatenate_substeps():
    rng = np.random.default_rng(6)
    f = BinaryFrame((rng.random((15, 15)) < 0.3).astype(np.uint8))
    split = DiffusionConfig(pulses=2, substeps_per_pulse=4, redigitize_between_pulses=False)
    joined = DiffusionConfig(pulses=1, substeps_per_pulse=8)
    assert np.array_equal(
        apply_pulses(f, split).volts, apply_pulses(f, joined).volts
    )


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


def test_probe_guard_and_validation():
    with pytest.raises(GuardError):
        probe_diffusion_speed(64, 64, "center", DiffusionConfig(amplitude=0.0))
    with pytest.raises(ConfigError):
        probe_diffusion_speed(64, 64, "edge", DiffusionConfig())
    with pytest.raises(ConfigError):
        probe_diffusion_speed(3, 64, "center", DiffusionConfig())
