"""Plain padded diffusion kernel, the reference for `cramsim.diffusion`.

A frame enters the array through `embed`. Every substep pads the grid with
zeros, sums the four shifted views, rebuilds the neighbor-count array and
builds a validated state. The flat in-place kernel must give the same
voltages bit for bit.
"""

from __future__ import annotations

import numpy as np

from cramsim.diffusion import DiffusionConfig
from cramsim.errors import ConfigError
from cramsim.grid import AnalogState, BinaryFrame


def embed(frame: BinaryFrame, ring: int = 1) -> AnalogState:
    """Write a frame into an analog state: interior = pixel value, ring = 0.0."""
    if ring < 0:
        raise ConfigError("ring width must be >= 0")
    h, w = frame.height, frame.width
    volts = np.zeros((h + 2 * ring, w + 2 * ring), dtype=np.float64)
    volts[ring:ring + h, ring:ring + w] = frame.pixels
    return AnalogState(volts, ring)


def neighbor_counts(shape: tuple[int, int]) -> np.ndarray:
    k = np.full(shape, 4.0)
    k[0, :] -= 1.0
    k[-1, :] -= 1.0
    k[:, 0] -= 1.0
    k[:, -1] -= 1.0
    return k


def substep(state: AnalogState, coupling: float) -> AnalogState:
    """v + c * (((N + S) + (W + E)) - k * v) over a zero-padded copy of the grid."""
    v = state.volts
    padded = np.pad(v, 1)
    neighbor_sum = (padded[:-2, 1:-1] + padded[2:, 1:-1]) + (padded[1:-1, :-2] + padded[1:-1, 2:])
    out = v + coupling * (neighbor_sum - neighbor_counts(v.shape) * v)
    return AnalogState(out, state.ring)


def threshold(state: AnalogState, vth: float) -> BinaryFrame:
    return BinaryFrame((state.interior() > vth).astype(np.uint8))


def apply_pulses(frame: BinaryFrame, cfg: DiffusionConfig, ring: int = 1) -> AnalogState:
    """The pulse train at an explicit ring width, one substep and one state at a time."""
    state = embed(frame, ring)
    c = cfg.coupling
    for pulse in range(cfg.pulses):
        if c > 0.0:
            for _ in range(cfg.substeps_per_pulse):
                state = substep(state, c)
        if pulse < cfg.pulses - 1:
            state = embed(threshold(state, cfg.vth), ring)
    return state


def restore_image(frame: BinaryFrame, cfg: DiffusionConfig, ring: int = 1) -> BinaryFrame:
    return threshold(apply_pulses(frame, cfg, ring), cfg.vth)
