"""Charge-diffusion image restoration on the cell array.

With diffusion enabled, the array behaves as a 2-D RC network: every cell
exchanges charge with its 4-neighbors each substep. Pulse width maps to
substeps per pulse, pulse amplitude scales the per-substep coupling, and
re-digitization between pulses models sensing the analog node back into a
stored bit. The outermost edge of the dummy ring reflects: no charge leaves
the simulated array, so total charge is conserved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, GuardError
from .grid import MAX_DIM, AnalogState, BinaryFrame

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
    ring: width of the grounded dummy ring around the frame, in [0, MAX_DIM].
    """

    alpha: float = 0.2
    substeps_per_pulse: int = 8
    amplitude: float = 1.0
    pulses: int = 1
    vth: float = 0.5
    redigitize_between_pulses: bool = True
    ring: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= STABILITY_LIMIT:
            raise ConfigError(f"alpha must be in (0, {STABILITY_LIMIT}], got {self.alpha}")
        if not self.amplitude >= 0.0:
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
        if not 0 <= self.ring <= MAX_DIM:
            raise ConfigError(f"ring must be in [0, {MAX_DIM}], got {self.ring}")

    @property
    def coupling(self) -> float:
        return self.alpha * self.amplitude


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the blob diffusion-speed probe."""

    location: Literal["center", "corner"]
    steps_to_threshold: int


@functools.lru_cache(maxsize=16)
def _neighbor_counts(rows: int, cols: int) -> np.ndarray:
    """Read-only in-grid neighbor count of each cell of a rows x cols grid.

    Flat and laid out like rows 1..rows of a :class:`_Stencil` buffer: the
    two border columns of each row hold 0.
    """
    k = np.zeros((rows, cols + 2))
    cells = k[:, 1:-1]
    cells += 4.0
    cells[0, :] -= 1.0
    cells[-1, :] -= 1.0
    cells[:, 0] -= 1.0
    cells[:, -1] -= 1.0
    k = k.ravel()
    k.flags.writeable = False
    return k


class _Stencil:
    """Double buffer that diffuses a rows x cols grid, dummy ring included.

    Each buffer holds the grid inside a one-cell border of zeros and is used
    flat. With row width wp = cols + 2, a cell's N, S, W and E neighbors sit
    at offsets -wp, +wp, -1 and +1, so every op of a substep is a contiguous
    1-D slice op over rows 1..rows. Those ops also write the two border
    columns, which are zeroed again after each substep; the border rows are
    never written. A zero border cell adds nothing to a neighbor sum and the
    neighbor count leaves it out, so the outer edge reflects.
    """

    def __init__(self, rows: int, cols: int):
        wp = cols + 2
        self._wp = wp
        self._k = _neighbor_counts(rows, cols)
        self._tmp = np.empty(rows * wp)
        self._cur = np.zeros((rows + 2) * wp)
        self._nxt = np.zeros_like(self._cur)

    @property
    def grid(self) -> np.ndarray:
        """Writable 2-D view of the current voltages, border excluded."""
        return self._cur.reshape(-1, self._wp)[1:-1, 1:-1]

    def run(self, coupling: float, substeps: int) -> None:
        """Advance the grid by explicit substeps; see :func:`diffuse_substep`."""
        wp, k, tmp = self._wp, self._k, self._tmp
        lo, hi = wp, wp + k.size
        cur, nxt = self._cur, self._nxt
        for _ in range(substeps):
            v, out = cur[lo:hi], nxt[lo:hi]
            np.add(cur[lo - wp:hi - wp], cur[lo + wp:hi + wp], out=out)  # N + S
            np.add(cur[lo - 1:hi - 1], cur[lo + 1:hi + 1], out=tmp)  # W + E
            out += tmp
            np.multiply(k, v, out=tmp)
            out -= tmp
            out *= coupling
            out += v
            nxt.reshape(-1, wp)[1:-1, ::wp - 1] = 0.0  # border columns
            cur, nxt = nxt, cur
        self._cur, self._nxt = cur, nxt

    def state(self, ring: int) -> AnalogState:
        """The voltages as an AnalogState in the idle buffer; the stencil must not run again."""
        grid = self.grid
        packed = self._nxt[:grid.size].reshape(grid.shape)
        packed[...] = grid
        return AnalogState(packed, ring)

    def redigitize(self, ring: int, vth: float) -> None:
        """Threshold the interior back to bits and zero the ring, like a re-embed."""
        inner = _interior(self.grid, ring)
        bits = inner > vth
        self._cur.fill(0.0)
        inner[...] = bits


def _interior(grid: np.ndarray, ring: int) -> np.ndarray:
    return grid[ring:grid.shape[0] - ring, ring:grid.shape[1] - ring]


def _embed(pixels: np.ndarray, ring: int) -> _Stencil:
    """A stencil holding the frame's pixels inside a ring of zeros."""
    h, w = pixels.shape
    stencil = _Stencil(h + 2 * ring, w + 2 * ring)
    _interior(stencil.grid, ring)[...] = pixels
    return stencil


def diffuse_substep(state: AnalogState, coupling: float) -> AnalogState:
    """One explicit diffusion substep over every cell, ring included.

    v'(c) = v(c) + coupling * sum over in-grid 4-neighbors n of (v(n) - v(c)).
    Edge cells simply have fewer neighbor terms (reflecting outer boundary),
    so total charge is conserved. The input state is not mutated. The update
    is computed as v + coupling * (((N + S) + (W + E)) - k * v), with k the
    cell's in-grid neighbor count, so transposing or flipping the grid
    commutes with it bit-for-bit.
    """
    if not 0.0 < coupling <= STABILITY_LIMIT:
        raise ConfigError(f"coupling must be in (0, {STABILITY_LIMIT}], got {coupling}")
    stencil = _Stencil(*state.volts.shape)
    stencil.grid[...] = state.volts
    stencil.run(coupling, 1)
    return stencil.state(state.ring)


def threshold_restore(state: AnalogState, cfg: DiffusionConfig) -> BinaryFrame:
    """Re-digitize the interior: pixel = 1 iff voltage strictly exceeds cfg.vth."""
    return BinaryFrame((state.interior() > cfg.vth).astype(np.uint8))


def apply_pulses(frame: BinaryFrame, cfg: DiffusionConfig) -> AnalogState:
    """Run the configured pulse train on a frame; the final pulse stays analog.

    Between pulses (when enabled) the interior is thresholded back to bits and
    the ring zeroed, exactly as a store-and-restart would.
    amplitude == 0 means no conduction: the embedded state passes through.
    """
    stencil = _embed(frame.pixels, cfg.ring)
    c = cfg.coupling
    for pulse in range(cfg.pulses):
        if c > 0.0:
            stencil.run(c, cfg.substeps_per_pulse)
        if cfg.redigitize_between_pulses and pulse < cfg.pulses - 1:
            stencil.redigitize(cfg.ring, cfg.vth)
    return stencil.state(cfg.ring)


def restore_image(frame: BinaryFrame, cfg: DiffusionConfig) -> BinaryFrame:
    """Full restoration: pulse train, then inverter re-digitization at cfg.vth.

    At the default config this removes every 4-isolated 1-pixel and fills any
    fully enclosed single-pixel hole in a solid block of 5x5 or larger.
    """
    return threshold_restore(apply_pulses(frame, cfg), cfg)


def _check_max_ones(max_ones: int) -> None:
    if max_ones < 0:
        raise ConfigError(f"blank max_ones must be >= 0, got {max_ones}")


def blank_frame_detect(frame: BinaryFrame, max_ones: int = 0) -> bool:
    """True iff the frame holds at most max_ones set pixels."""
    _check_max_ones(max_ones)
    return frame.popcount() <= max_ones


def probe_diffusion_speed(
    grid_w: int,
    grid_h: int,
    location: Literal["center", "corner"],
    cfg: DiffusionConfig,
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
    if grid_w > MAX_DIM or grid_h > MAX_DIM:
        raise ConfigError(f"frame {grid_w}x{grid_h} exceeds {MAX_DIM}x{MAX_DIM}")
    if location == "center":
        r0, c0 = (grid_h - 4) // 2, (grid_w - 4) // 2
    else:
        r0, c0 = 0, 0
    pixels = np.zeros((grid_h, grid_w))
    pixels[r0:r0 + 4, c0:c0 + 4] = 1.0
    stencil = _embed(pixels, cfg.ring)
    blob = (slice(cfg.ring + r0, cfg.ring + r0 + 4), slice(cfg.ring + c0, cfg.ring + c0 + 4))
    c = cfg.coupling
    if c <= 0.0:
        raise GuardError(f"{location} probe cannot settle: zero diffusion amplitude")
    for step in range(1, MAX_PROBE_SUBSTEPS + 1):
        stencil.run(c, 1)
        if stencil.grid[blob].max() < cfg.vth:
            return ProbeResult(location, step)
    raise GuardError(
        f"{location} probe did not cross vth={cfg.vth} within {MAX_PROBE_SUBSTEPS} substeps"
    )
