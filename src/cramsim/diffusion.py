"""Charge-diffusion image restoration on the cell array.

With diffusion enabled, the array behaves as a 2-D RC network: every cell
exchanges charge with its 4-neighbors each substep. Pulse width maps to
substeps per pulse, pulse amplitude scales the per-substep coupling, and
re-digitization between pulses models sensing the analog node back into a
stored bit. The outermost edge of the dummy ring reflects: no charge leaves
the simulated array, so total charge is conserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, GuardError
from .grid import AnalogState, BinaryFrame, embed

MAX_PROBE_SUBSTEPS = 10**6

STABILITY_LIMIT = 0.25  # explicit 4-neighbor scheme stays a convex combination


@dataclass(frozen=True)
class DiffusionConfig:
    """Knobs for one restoration pass.

    alpha: dimensionless per-substep coupling dt/(R*C), in (0, 0.25].
    substeps_per_pulse: pulse width in substeps.
    amplitude: conductance scale >= 0 multiplying alpha (pulse amplitude).
    pulses: number of enable pulses.
    vth: inverter switching threshold in (0, 1).
    redigitize_between_pulses: threshold back to {0,1} between pulses.
    """

    alpha: float = 0.2
    substeps_per_pulse: int = 8
    amplitude: float = 1.0
    pulses: int = 1
    vth: float = 0.5
    redigitize_between_pulses: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha <= STABILITY_LIMIT:
            raise ConfigError(f"alpha must be in (0, {STABILITY_LIMIT}], got {self.alpha}")
        if self.amplitude < 0.0:
            raise ConfigError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.amplitude * self.alpha > STABILITY_LIMIT:
            raise ConfigError(
                f"amplitude*alpha = {self.amplitude * self.alpha} exceeds "
                f"stability limit {STABILITY_LIMIT}"
            )
        if self.substeps_per_pulse < 1:
            raise ConfigError("substeps_per_pulse must be >= 1")
        if self.pulses < 1:
            raise ConfigError("pulses must be >= 1")
        if not 0.0 < self.vth < 1.0:
            raise ConfigError(f"vth must be in (0, 1), got {self.vth}")

    @property
    def coupling(self) -> float:
        return self.alpha * self.amplitude


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the blob diffusion-speed probe."""

    location: Literal["center", "corner"]
    steps_to_threshold: int


def _neighbor_counts(shape: tuple[int, int]) -> np.ndarray:
    k = np.full(shape, 4.0)
    k[0, :] -= 1.0
    k[-1, :] -= 1.0
    k[:, 0] -= 1.0
    k[:, -1] -= 1.0
    return k


def diffuse_substep(state: AnalogState, coupling: float) -> AnalogState:
    """One explicit diffusion substep over every cell, ring included.

    v'(c) = v(c) + coupling * sum over in-grid 4-neighbors n of (v(n) - v(c)).
    Edge cells simply have fewer neighbor terms (reflecting outer boundary),
    so total charge is conserved. Double-buffered: the input state is not
    mutated. The neighbor sum is grouped as (N + S) + (W + E) so transposing
    or flipping the grid commutes with the update bit-for-bit.
    """
    if not 0.0 < coupling <= STABILITY_LIMIT:
        raise ConfigError(f"coupling must be in (0, {STABILITY_LIMIT}], got {coupling}")
    v = state.volts
    padded = np.pad(v, 1)
    neighbor_sum = (padded[:-2, 1:-1] + padded[2:, 1:-1]) + (padded[1:-1, :-2] + padded[1:-1, 2:])
    out = v + coupling * (neighbor_sum - _neighbor_counts(v.shape) * v)
    return AnalogState(out, state.ring)


def threshold_restore(state: AnalogState, vth: float) -> BinaryFrame:
    """Re-digitize the interior: pixel = 1 iff voltage strictly exceeds vth."""
    if not 0.0 < vth < 1.0:
        raise ConfigError(f"vth must be in (0, 1), got {vth}")
    return BinaryFrame((state.interior() > vth).astype(np.uint8))


def apply_pulses(frame: BinaryFrame, cfg: DiffusionConfig, ring: int = 1) -> AnalogState:
    """Run the configured pulse train on a frame; the final pulse stays analog.

    Between pulses (when enabled) the interior is thresholded back to bits and
    re-embedded, which zeroes the ring exactly as a store-and-restart would.
    amplitude == 0 means no conduction: the embedded state passes through.
    """
    state = embed(frame, ring)
    c = cfg.coupling
    for pulse in range(cfg.pulses):
        if c > 0.0:
            for _ in range(cfg.substeps_per_pulse):
                state = diffuse_substep(state, c)
        if cfg.redigitize_between_pulses and pulse < cfg.pulses - 1:
            state = embed(threshold_restore(state, cfg.vth), ring)
    return state


def restore_image(frame: BinaryFrame, cfg: DiffusionConfig, ring: int = 1) -> BinaryFrame:
    """Full restoration: pulse train, then inverter re-digitization at cfg.vth.

    At the default config this removes every 4-isolated 1-pixel and fills any
    fully enclosed single-pixel hole in a solid block of 5x5 or larger.
    """
    return threshold_restore(apply_pulses(frame, cfg, ring), cfg.vth)


def blank_frame_detect(frame: BinaryFrame, max_ones: int = 0) -> bool:
    """True iff the frame holds at most max_ones set pixels."""
    if max_ones < 0:
        raise ConfigError(f"blank max_ones must be >= 0, got {max_ones}")
    return frame.popcount() <= max_ones


def probe_diffusion_speed(
    grid_w: int,
    grid_h: int,
    location: Literal["center", "corner"],
    cfg: DiffusionConfig,
    ring: int = 1,
) -> ProbeResult:
    """Write a 4x4 blob of 1s into an all-zero grid and watch it dissipate.

    Runs substeps without re-digitization and returns the first substep at
    which the blob's peak voltage drops below cfg.vth. Corner placement abuts
    the dummy ring; charge there has less area to spread into, so the corner
    reads slower than the center. Raises GuardError if the threshold is not
    crossed within MAX_PROBE_SUBSTEPS.
    """
    if location not in ("center", "corner"):
        raise ConfigError(f"unknown probe location {location!r}")
    if grid_w < 4 or grid_h < 4:
        raise ConfigError(f"4x4 blob does not fit in {grid_w}x{grid_h}")
    if location == "center":
        r0, c0 = (grid_h - 4) // 2, (grid_w - 4) // 2
    else:
        r0, c0 = 0, 0
    frame = BinaryFrame.zeros(grid_w, grid_h)
    frame.pixels[r0:r0 + 4, c0:c0 + 4] = 1
    state = embed(frame, ring)
    blob = (slice(ring + r0, ring + r0 + 4), slice(ring + c0, ring + c0 + 4))
    c = cfg.coupling
    if c <= 0.0:
        raise GuardError(f"{location} probe cannot settle: zero diffusion amplitude")
    for step in range(1, MAX_PROBE_SUBSTEPS + 1):
        state = diffuse_substep(state, c)
        if state.volts[blob].max() < cfg.vth:
            return ProbeResult(location, step)
    raise GuardError(
        f"{location} probe did not cross vth={cfg.vth} within {MAX_PROBE_SUBSTEPS} substeps"
    )
