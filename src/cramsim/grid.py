"""Binary frames, analog cell-array states, and bit-exact file I/O.

A frame is a W x H grid of {0,1} pixels.
An analog state is the same grid embedded in a border of dummy cells
(the "ring") holding normalized node voltages in [0, 1], VDD == 1.0.

Frames round-trip through PBM (P4); analog states export to PGM (P5)
as output-only snapshots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FrameFormatError

DEFAULT_WIDTH = 320
DEFAULT_HEIGHT = 240
MAX_DIM = 4096

_VOLT_TOL = 1e-9  # slack for float round-off at the 0/1 rails


@dataclass(frozen=True, eq=False)
class BinaryFrame:
    """A height x width grid of {0,1} pixels, always one C-contiguous uint8 array that the
    kernels read as it is. The frame is frozen; its pixels stay writable in place."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"pixels must be a non-empty 2-D array, got shape {px.shape}")
        if px.max(initial=0) > 1:
            raise ValueError("pixel values must be 0 or 1")
        object.__setattr__(self, "pixels", px)

    @classmethod
    def zeros(cls, width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT) -> "BinaryFrame":
        return cls(np.zeros((height, width), dtype=np.uint8))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def popcount(self) -> int:
        return int(self.pixels.sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryFrame) and np.array_equal(self.pixels, other.pixels)


@dataclass(eq=False)
class AnalogState:
    """Node voltages over the frame interior plus a dummy ring on all four sides.

    ``volts`` has shape (height + 2*ring, width + 2*ring); the interior block
    of shape (height, width) holds the addressable cells.
    """

    volts: np.ndarray
    ring: int = 1

    def __post_init__(self):
        v = np.ascontiguousarray(self.volts, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"volts must be 2-D, got shape {v.shape}")
        if self.ring < 0:
            raise ValueError("ring width must be >= 0")
        if v.shape[0] <= 2 * self.ring or v.shape[1] <= 2 * self.ring:
            raise ValueError(f"volts shape {v.shape} leaves no interior for ring={self.ring}")
        if v.min() < -_VOLT_TOL or v.max() > 1.0 + _VOLT_TOL:
            raise ValueError("voltages must lie in [0, 1]")
        self.volts = v

    def interior(self) -> np.ndarray:
        """View of the addressable (non-ring) cells."""
        r = self.ring
        if r == 0:
            return self.volts
        return self.volts[r:-r, r:-r]


# --- PBM (P4) binary frames -------------------------------------------------

# Header tokens are separated by whitespace and by '#' comments, each running
# to the end of its line.
_SEPARATORS = re.compile(rb"(?:\s|#[^\n]*\n?)*")
_TOKEN = re.compile(rb"\S*")


def frame_to_bytes(frame: BinaryFrame) -> bytes:
    """Serialize a frame as binary PBM (P4): 1-bits packed MSB-first per row."""
    if frame.width > MAX_DIM or frame.height > MAX_DIM:
        raise FrameFormatError(f"frame {frame.width}x{frame.height} exceeds {MAX_DIM}x{MAX_DIM}")
    header = f"P4\n{frame.width} {frame.height}\n".encode("ascii")
    payload = np.packbits(frame.pixels, axis=1).tobytes()
    return header + payload


def load_frame(path: str | Path) -> BinaryFrame:
    """Read a binary PBM (P4) file; errors name the failing byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()

    def read_token(pos: int) -> tuple[bytes, int]:
        start = _SEPARATORS.match(data, pos).end()
        pos = _TOKEN.match(data, start).end()
        if start == pos:
            raise FrameFormatError("unexpected end of header", offset=start)
        return data[start:pos], pos

    magic, pos = read_token(0)
    if magic != b"P4":
        raise FrameFormatError(f"not a P4 bitmap (magic {magic!r})", offset=0)
    dims = []
    for name in ("width", "height"):
        tok, pos = read_token(pos)
        start = pos - len(tok)
        if not tok.isdigit():  # ASCII decimal digits only: no sign, no underscores
            raise FrameFormatError(f"bad {name} token {tok!r}", offset=start)
        value = int(tok)
        if value < 1:
            raise FrameFormatError(f"{name} must be >= 1, got {value}", offset=start)
        if value > MAX_DIM:
            raise FrameFormatError(f"{name} {value} exceeds {MAX_DIM}", offset=start)
        dims.append(value)
    width, height = dims
    if pos >= len(data):
        raise FrameFormatError("missing payload", offset=pos)
    pos += 1  # single whitespace byte ends the header
    row_bytes = (width + 7) // 8
    expected = row_bytes * height
    payload = data[pos:pos + expected]
    if len(payload) < expected:
        raise FrameFormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            offset=pos + len(payload),
        )
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :width]
    return BinaryFrame(bits)


# --- PGM (P5) analog snapshots ------------------------------------------------

def analog_to_bytes(state: AnalogState) -> bytes:
    """Serialize an analog state as 8-bit PGM (P5); voltage v stores as round(v*255).

    The full array, ring included, is written; the ring width rides along in a
    header comment so a reader can locate the interior. PGM sets no size limit,
    so any state a valid config produces is written, even one whose ring makes
    it wider than MAX_DIM.
    """
    rows, cols = state.volts.shape
    header = f"P5\n# ring {state.ring}\n{cols} {rows}\n255\n".encode("ascii")
    levels = state.volts * 255.0
    np.rint(levels, out=levels)
    return header + levels.astype(np.uint8).tobytes()
