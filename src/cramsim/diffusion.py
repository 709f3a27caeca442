"""Charge-diffusion image restoration on the cell array.

With diffusion enabled, the array behaves as a 2-D RC network: every cell
exchanges charge with its 4-neighbors each substep. Pulse width maps to
substeps per pulse, and pulse amplitude scales the per-substep coupling.
The outermost edge of the dummy ring reflects: no charge leaves the
simulated array, so total charge is conserved.

A frame is restored on its thread's `_Stencil`, and every pulse runs the
same three steps: load a bit plane inside a ring of zeros (the frame's
pixels, then the bits the pulse before sensed), diffuse, and sense the
cells back into stored bits, as the inverters do. Where the compiled
kernels load (`_ckernel`), one call per frame runs the whole train, in the
AVX-512F build where this CPU has it and in the baseline build otherwise,
chosen once per process from what the library reports; the same loop over
`_Stencil`'s numpy steps is the fallback, with the same bits.
`diffuse_substep` and the probe run the numpy kernel.

A frame that is restored only to be searched (`EvalPipeline.propose`, through
`restore_image` with a search config) is restored and searched in one
compiled call: the projection search reads the restored bits in the
thread's own buffers, as the array's projections read them in place, and
the call drops and retakes the GIL once per frame instead of twice.

The compiled kernel works in tiles of cells. `restore_image` wants only
the bits, and the kernel then takes most of them from a charge bound: a
pulse of S substeps leaves each cell at a weighted sum of the bits within
S cells of it, with weights that sum to 1 and each at most m times the
free-space kernel's largest value at that distance or beyond (m is 1, 2
or 4, doubling on each axis where the cell is within S of the reflecting
edge). Where the bound puts a whole tile of cells on one side of vth, with
a margin far above the rounding, its bits are written without diffusing
it, and the substeps run only near the tiles still in doubt, so the bits
are those of the full train. Every tile is in doubt where the bound does
not apply: for `apply_pulses`, which returns every voltage, and when
amplitude is 0, S is under 3, or a side of the grid (frame and ring) is
under 2S + 2.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import _ckernel
from .errors import ConfigError, GuardError
from .grid import MAX_DIM, AnalogState, BinaryFrame
from .projection import (
    IssResult,
    RpConfig,
    _check_searchable,
    _fewest_to_trip,
    _iteration_cap,
    _kernel_result,
    iss,
)

MAX_PROBE_SUBSTEPS = 10**6
MAX_COUNT = 2**31 - 1  # the most substeps per pulse, or pulses: a C long on every platform

STABILITY_LIMIT = 0.25  # explicit 4-neighbor scheme stays a convex combination


@dataclass(frozen=True)
class DiffusionConfig:
    """Knobs for one restoration pass.

    alpha: dimensionless per-substep coupling dt/(R*C), in (0, 0.25].
    substeps_per_pulse: pulse width in substeps, in [1, MAX_COUNT].
    amplitude: conductance scale >= 0 multiplying alpha (pulse amplitude).
    pulses: number of enable pulses, in [1, MAX_COUNT].
    vth: inverter switching threshold in (0, 1).
    ring: width of the grounded dummy ring around the frame, in [0, MAX_DIM].
    """

    alpha: float = 0.2
    substeps_per_pulse: int = 8
    amplitude: float = 1.0
    pulses: int = 1
    vth: float = 0.5
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
        for name in ("substeps_per_pulse", "pulses"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_COUNT:
                raise ConfigError(f"{name} must be in [1, {MAX_COUNT}], got {value}")
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


class _Stencil:
    """Double buffer that diffuses a rows x cols grid, dummy ring included.

    Each buffer holds the grid inside a one-cell border of zeros and is used
    flat. With row width wp = cols + 2, a cell's N, S, W and E neighbors sit
    at offsets -wp, +wp, -1 and +1, so every op of a substep is a contiguous
    1-D slice op over rows 1..rows. Those ops also write the two border
    columns, which are zeroed again after each substep; the border rows are
    never written. A zero border cell adds nothing to a neighbor sum and has
    no in-grid neighbor count, so the outer edge reflects. Both buffers'
    borders are zero whenever no method is running, which lets the compiled
    restore write only the grid cells.

    The compiled restore-and-search call also keeps its restored bits, its
    work rows (16 bytes per cell) and its counts here, made on its first use
    and sized for any frame on this grid, whatever its ring.
    """

    def __init__(self, rows: int, cols: int):
        wp = cols + 2
        self.shape = (rows, cols)
        self._wp = wp
        k = np.zeros((rows, wp))  # in-grid neighbor count; 4 off the grid's edge
        cells = k[:, 1:-1]
        cells += 4.0
        cells[0, :] -= 1.0
        cells[-1, :] -= 1.0
        cells[:, 0] -= 1.0
        cells[:, -1] -= 1.0
        self._edges = [(e, k[e].copy()) for e in (np.s_[0], np.s_[-1], np.s_[:, 1], np.s_[:, -2])]
        self._tmp = np.empty(rows * wp)
        self._cur = np.zeros((rows + 2) * wp)
        self._nxt = np.zeros_like(self._cur)
        self._bits = self._work = None  # the search's, on first use
        self._info = np.empty(0, np.int64)

    @property
    def grid(self) -> np.ndarray:
        """Writable 2-D view of the current voltages, border excluded."""
        return self._cur.reshape(-1, self._wp)[1:-1, 1:-1]

    def run(self, coupling: float, substeps: int) -> None:
        """Advance the grid by explicit substeps; see :func:`diffuse_substep`.

        k * v is 4 * v off the grid's edge, exact in binary floating point, so
        only the edge rows and columns multiply by their own neighbor counts.
        """
        wp, tmp = self._wp, self._tmp
        lo, hi = wp, wp + tmp.size
        tmp2 = tmp.reshape(-1, wp)
        cur, nxt = self._cur, self._nxt
        for _ in range(substeps):
            v, out = cur[lo:hi], nxt[lo:hi]
            np.add(cur[lo - wp:hi - wp], cur[lo + wp:hi + wp], out=out)  # N + S
            np.add(cur[lo - 1:hi - 1], cur[lo + 1:hi + 1], out=tmp)  # W + E
            out += tmp
            np.multiply(v, 4.0, out=tmp)
            v2 = v.reshape(-1, wp)
            for edge, k in self._edges:
                np.multiply(k, v2[edge], out=tmp2[edge])
            out -= tmp
            out *= coupling
            out += v
            nxt.reshape(-1, wp)[1:-1, ::wp - 1] = 0.0  # border columns
            cur, nxt = nxt, cur
        self._cur, self._nxt = cur, nxt

    def state(self, ring: int) -> AnalogState:
        """A copy of the voltages that later use of the stencil leaves alone."""
        return AnalogState(self.grid.copy(), ring)

    def pulse_train(self, frame: BinaryFrame, cfg: DiffusionConfig, analog: bool) -> np.ndarray:
        """Run cfg's pulse train on the frame; returns the last pulse's bits.

        Each pulse loads a bit plane inside a ring of zeros, the frame's
        pixels and then the bits the pulse before sensed, diffuses it (not at
        all if amplitude == 0) and senses its cells at cfg.vth. With analog,
        the last pulse's charges stay in the stencil. The compiled kernel
        (`_ckernel`) runs the train in one call; without it, or if it cannot
        allocate its scratch, the numpy loop below does.

        Without analog, the compiled kernel may take most bits from the
        charge bound of the module docstring instead, with the same bits,
        and leaves the grid's charges unspecified.
        """
        ring, vth, c = cfg.ring, cfg.vth, cfg.coupling
        kernels = _ckernel.kernels()
        if kernels is not None:
            bits = np.empty(frame.pixels.shape, np.uint8)
            swapped = kernels.restore(frame.pixels.ctypes.data, *bits.shape, ring,
                                      self._cur.ctypes.data, self._nxt.ctypes.data, c,
                                      cfg.substeps_per_pulse, cfg.pulses, vth, bits.ctypes.data,
                                      analog)
            if swapped >= 0:
                if swapped:
                    self._cur, self._nxt = self._nxt, self._cur
                return bits
        bits = frame.pixels
        for _ in range(cfg.pulses):
            self.load(bits, ring)
            if c > 0.0:
                self.run(c, cfg.substeps_per_pulse)
            bits = (_interior(self.grid, ring) > vth).astype(np.uint8)
        return bits

    def restore_search(self, frame: BinaryFrame, cfg: DiffusionConfig,
                       rp: RpConfig) -> IssResult | None:
        """Restore the frame as restore_image does and search the restored bits as
        projection.iss does, in one compiled call; None without the compiled kernels or if
        the call declined. The grid's charges are left unspecified."""
        kernels = _ckernel.kernels()
        if kernels is None:
            return None
        h, w = frame.pixels.shape
        max_iters = _iteration_cap(rp.max_iters, h * w)  # the search has room for every pixel
        if self._work is None:
            cells = self.shape[0] * self.shape[1]
            self._bits, self._work = np.empty(cells, np.uint8), np.empty((cells, 4), np.int32)
        if len(self._info) < max_iters + 2:
            self._info = np.empty(max_iters + 2, np.int64)
        n = kernels.restore_search(frame.pixels.ctypes.data, h, w, cfg.ring,
                                   self._cur.ctypes.data, self._nxt.ctypes.data, cfg.coupling,
                                   cfg.substeps_per_pulse, cfg.pulses, cfg.vth,
                                   self._bits.ctypes.data, _fewest_to_trip(rp.projection),
                                   max_iters, self._work.ctypes.data, self._info.ctypes.data)
        return _kernel_result(n, self._work, self._info)

    def load(self, pixels: np.ndarray, ring: int) -> None:
        """Write the pixels inside a ring of zeros, replacing every voltage."""
        self._cur.fill(0.0)
        _interior(self.grid, ring)[...] = pixels


_workspace = threading.local()


def _interior(grid: np.ndarray, ring: int) -> np.ndarray:
    return grid[ring:grid.shape[0] - ring, ring:grid.shape[1] - ring]


def _stencil(frame_shape: tuple[int, int], ring: int) -> _Stencil:
    """This thread's stencil for a frame inside a ring, kept while the grid shape holds."""
    h, w = frame_shape
    shape = (h + 2 * ring, w + 2 * ring)
    stencil = getattr(_workspace, "stencil", None)
    if stencil is None or stencil.shape != shape:
        _workspace.stencil = None  # free the old buffers before allocating
        stencil = _workspace.stencil = _Stencil(*shape)
    return stencil


def _embed(pixels: np.ndarray, ring: int) -> _Stencil:
    """This thread's stencil with the pixels in a zero ring."""
    stencil = _stencil(pixels.shape, ring)
    stencil.load(pixels, ring)
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
    stencil = _embed(state.volts, 0)
    stencil.run(coupling, 1)
    return stencil.state(state.ring)


def threshold_restore(state: AnalogState, cfg: DiffusionConfig) -> BinaryFrame:
    """Re-digitize the interior: pixel = 1 iff voltage strictly exceeds cfg.vth."""
    return BinaryFrame((state.interior() > cfg.vth).astype(np.uint8))


def apply_pulses(frame: BinaryFrame, cfg: DiffusionConfig) -> AnalogState:
    """Run the configured pulse train on a frame; the final pulse stays analog."""
    stencil = _stencil(frame.pixels.shape, cfg.ring)
    stencil.pulse_train(frame, cfg, analog=True)
    return stencil.state(cfg.ring)


def restore_image(frame: BinaryFrame, cfg: DiffusionConfig,
                  search: RpConfig | None = None) -> BinaryFrame | IssResult:
    """Full restoration: the bits the pulse train's last pulse senses at cfg.vth.

    At the default config this removes every 4-isolated 1-pixel and fills any
    fully enclosed single-pixel hole in a solid block of 5x5 or larger. The
    compiled kernel decides most bits from the charge bound of the module
    docstring and diffuses only near the tiles it leaves in doubt; the bits
    are those of the full pulse train, and every tile is in doubt where the
    bound does not apply.

    With search, the restored frame is searched instead of returned: the
    result is ``iss(restore_image(frame, cfg), search)``, run as one compiled
    call where the kernels load and as those two calls where they do not or
    the compiled call declines. `EvalPipeline.propose` restores this way; the
    fused call stays under this function's name, which the benchmark's
    tracer times as the restore layer.
    """
    if search is None:
        stencil = _stencil(frame.pixels.shape, cfg.ring)
        return BinaryFrame(stencil.pulse_train(frame, cfg, analog=False))
    _check_searchable(frame)
    stencil = _stencil(frame.pixels.shape, cfg.ring)
    return (stencil.restore_search(frame, cfg, search)
            or iss(BinaryFrame(stencil.pulse_train(frame, cfg, analog=False)), search))


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
