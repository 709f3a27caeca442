"""Synthetic separated-rectangle scenes with salt noise and fragmentation.

Scenes mimic sparse traffic frames: a handful of solid rectangles covering
a few percent of the grid. Rectangles are placed by recursive guillotine
splits, so any two objects are separated by an all-zero row or column band
at every refinement level, exactly the layouts the alternating projection
search resolves losslessly. Ground truth is the placed rectangles; salt
noise and interior zero-stripes (fragmentation) corrupt only the emitted
frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import DEFAULT_HEIGHT, DEFAULT_WIDTH, MAX_DIM, BinaryFrame
from .projection import Box, _sort_key

MAX_FRAMES = 10**5  # the most scenes in one corpus: `cram-sim synth` numbers them in 5 digits


@dataclass(frozen=True)
class SynthConfig:
    """Scene statistics: object count/size ranges, corruption, and the seed.

    Defaults describe the full-size sensor frame, with object sides scaled
    to cover roughly 5% of it. band_min is the narrowest all-zero
    separation between object groups. Each frame draws its object count
    from objects_min..objects_max, an upper bound on what it holds: the
    guillotine placement stops splitting a region once one of its sides
    cannot hold two side_min rectangles band_min apart, and places one
    rectangle there.
    """

    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT
    objects_min: int = 1
    objects_max: int = 4
    side_min: int = 24
    side_max: int = 48
    band_min: int = 4
    noise_density: float = 0.0
    fragment_gap: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.width < 4 or self.height < 4:
            raise ConfigError("frame must be at least 4x4")
        if self.width > MAX_DIM or self.height > MAX_DIM:
            raise ConfigError(f"frame {self.width}x{self.height} exceeds {MAX_DIM}x{MAX_DIM}")
        if not 1 <= self.objects_min <= self.objects_max:
            raise ConfigError("need 1 <= objects_min <= objects_max")
        pixels = self.width * self.height  # a frame holds no more objects than pixels
        if self.objects_max > pixels:
            raise ConfigError(f"objects_max must be <= width * height = {pixels}, "
                              f"got {self.objects_max}")
        if not 1 <= self.side_min <= self.side_max:
            raise ConfigError("need 1 <= side_min <= side_max")
        if self.side_max > min(self.width, self.height):
            raise ConfigError("side_max exceeds frame size")
        if self.band_min < 1:
            raise ConfigError("band_min must be >= 1")
        if not 0.0 <= self.noise_density <= 1.0:
            raise ConfigError("noise_density must be in [0, 1]")
        if self.fragment_gap < 0:
            raise ConfigError("fragment_gap must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Scene:
    """One generated sample: corrupted frame, pristine frame, true boxes."""

    frame: BinaryFrame
    clean: BinaryFrame
    gt: list[Box] = field(default_factory=list)


def _place(rng: np.random.Generator, r0: int, r1: int, c0: int, c1: int,
           n: int, cfg: SynthConfig) -> list[Box]:
    """Place n rectangles in the inclusive region, guillotine-splitting first."""
    rows, cols = r1 - r0 + 1, c1 - c0 + 1
    if n <= 1 or min(rows, cols) < 2 * cfg.side_min + cfg.band_min:
        h = int(rng.integers(cfg.side_min, min(cfg.side_max, rows) + 1))
        w = int(rng.integers(cfg.side_min, min(cfg.side_max, cols) + 1))
        rr = r0 + int(rng.integers(0, rows - h + 1))
        cc = c0 + int(rng.integers(0, cols - w + 1))
        return [Box(rr, rr + h - 1, cc, cc + w - 1)]

    n_first = int(rng.integers(1, n))
    # both axes have room for side_min on both sides of the band: draw one, 0 cutting the rows
    if int(rng.integers(0, 2)) == 0:
        cut = int(rng.integers(r0 + cfg.side_min, r1 - cfg.side_min - cfg.band_min + 2))
        first = _place(rng, r0, cut - 1, c0, c1, n_first, cfg)
        second = _place(rng, cut + cfg.band_min, r1, c0, c1, n - n_first, cfg)
    else:
        cut = int(rng.integers(c0 + cfg.side_min, c1 - cfg.side_min - cfg.band_min + 2))
        first = _place(rng, r0, r1, c0, cut - 1, n_first, cfg)
        second = _place(rng, r0, r1, cut + cfg.band_min, c1, n - n_first, cfg)
    return first + second


def generate_scene(cfg: SynthConfig, seed: int | None = None) -> Scene:
    """Build one scene deterministically from the seed.

    The clean frame holds the rectangles with fragmentation stripes carved
    out but no noise; the emitted frame additionally has salt noise OR-ed in.
    Ground truth is the un-fragmented rectangles.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    n = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
    boxes = _place(rng, 0, cfg.height - 1, 0, cfg.width - 1, n, cfg)
    boxes.sort(key=_sort_key)

    clean = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
    for b in boxes:
        clean[b.r0:b.r1 + 1, b.c0:b.c1 + 1] = 1

    if cfg.fragment_gap > 0:
        for b in boxes:
            # carve a zero stripe through the box, leaving >=2 px on each side
            g = cfg.fragment_gap
            if b.width >= g + 4 and bool(rng.integers(0, 2)):
                at = b.c0 + 2 + int(rng.integers(0, b.width - g - 3))
                clean[b.r0:b.r1 + 1, at:at + g] = 0
            elif b.height >= g + 4:
                at = b.r0 + 2 + int(rng.integers(0, b.height - g - 3))
                clean[at:at + g, b.c0:b.c1 + 1] = 0

    noisy = clean.copy()
    if cfg.noise_density > 0.0:
        salt = rng.random((cfg.height, cfg.width)) < cfg.noise_density
        noisy = np.logical_or(noisy, salt).astype(np.uint8)

    return Scene(frame=BinaryFrame(noisy), clean=BinaryFrame(clean), gt=boxes)


def generate_corpus(cfg: SynthConfig, n_frames: int) -> list[Scene]:
    """n_frames scenes with per-frame seeds derived from cfg.seed."""
    if not 1 <= n_frames <= MAX_FRAMES:
        raise ConfigError(f"n_frames must be in [1, {MAX_FRAMES}], got {n_frames}")
    root = np.random.SeedSequence(cfg.seed)
    return [generate_scene(cfg, seed=child) for child in root.spawn(n_frames)]
