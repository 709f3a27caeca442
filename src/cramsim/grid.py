"""Binary frames, analog cell-array states, event ingestion, and bit-exact file I/O.

A frame is a W x H grid of {0,1} pixels accumulated from sensor events.
An analog state is the same grid embedded in a border of dummy cells
(the "ring") holding normalized node voltages in [0, 1], VDD == 1.0.

Frames round-trip through PBM (P4); analog states export to PGM (P5).
Event streams round-trip through a CSV format (header ``t,x,y,p``) and a
packed little-endian binary format (u32 t, u16 x, u16 y, u8 p).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, EventRangeError, FrameFormatError

DEFAULT_WIDTH = 320
DEFAULT_HEIGHT = 240
MAX_DIM = 4096

PolarityMode = Literal["any", "positive_only"]

_VOLT_TOL = 1e-9  # slack for float round-off at the 0/1 rails


class Event(NamedTuple):
    """One sensor event: timestamp (microseconds), column, row, polarity bit."""

    t: int
    x: int
    y: int
    p: int


@dataclass(eq=False)
class BinaryFrame:
    """A height x width grid of {0,1} pixels, row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"pixels must be a non-empty 2-D array, got shape {px.shape}")
        if px.max(initial=0) > 1:
            raise ValueError("pixel values must be 0 or 1")
        self.pixels = px

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

    def copy(self) -> "BinaryFrame":
        return BinaryFrame(self.pixels.copy())

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

    @property
    def width(self) -> int:
        return self.volts.shape[1] - 2 * self.ring

    @property
    def height(self) -> int:
        return self.volts.shape[0] - 2 * self.ring

    def interior(self) -> np.ndarray:
        """View of the addressable (non-ring) cells."""
        r = self.ring
        if r == 0:
            return self.volts
        return self.volts[r:-r, r:-r]

    def copy(self) -> "AnalogState":
        return AnalogState(self.volts.copy(), self.ring)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AnalogState)
            and self.ring == other.ring
            and np.array_equal(self.volts, other.volts)
        )


def frame_from_events(
    events: Sequence[Event] | Iterable[Event],
    window: tuple[int, int],
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    polarity_mode: PolarityMode = "any",
) -> BinaryFrame:
    """Accumulate events with t in [window[0], window[1]) into a binary frame.

    A pixel is 1 iff at least one matching event landed on it; accumulation is
    idempotent and insensitive to event order. Raises EventRangeError naming
    the first event whose coordinates fall outside width x height.
    """
    if polarity_mode not in ("any", "positive_only"):
        raise ConfigError(f"unknown polarity_mode {polarity_mode!r}")
    t0, t1 = window
    frame = BinaryFrame.zeros(width, height)
    px = frame.pixels
    for i, ev in enumerate(events):
        if not (0 <= ev.x < width and 0 <= ev.y < height):
            raise EventRangeError(i, f"(x={ev.x}, y={ev.y}) outside {width}x{height} frame")
        if not t0 <= ev.t < t1:
            continue
        if polarity_mode == "positive_only" and ev.p != 1:
            continue
        px[ev.y, ev.x] = 1
    return frame


# --- PBM (P4) binary frames -------------------------------------------------

def frame_to_bytes(frame: BinaryFrame) -> bytes:
    """Serialize a frame as binary PBM (P4): 1-bits packed MSB-first per row."""
    if frame.width > MAX_DIM or frame.height > MAX_DIM:
        raise FrameFormatError(f"frame {frame.width}x{frame.height} exceeds {MAX_DIM}x{MAX_DIM}")
    header = f"P4\n{frame.width} {frame.height}\n".encode("ascii")
    payload = np.packbits(frame.pixels, axis=1).tobytes()
    return header + payload


def save_frame(frame: BinaryFrame, path: str | Path) -> None:
    Path(path).write_bytes(frame_to_bytes(frame))


def load_frame(path: str | Path) -> BinaryFrame:
    """Read a binary PBM (P4) file; errors name the failing byte offset."""
    data = Path(path).read_bytes()
    pos = 0

    def skip_separators(pos: int) -> int:
        # whitespace and '#' comment lines separate header tokens
        while pos < len(data):
            b = data[pos:pos + 1]
            if b.isspace():
                pos += 1
            elif b == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            else:
                break
        return pos

    def read_token(pos: int) -> tuple[bytes, int]:
        pos = skip_separators(pos)
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FrameFormatError("unexpected end of header", offset=start)
        return data[start:pos], pos

    magic, pos = read_token(pos)
    if magic != b"P4":
        raise FrameFormatError(f"not a P4 bitmap (magic {magic!r})", offset=0)
    dims = []
    for name in ("width", "height"):
        tok, pos = read_token(pos)
        try:
            value = int(tok)
        except ValueError:
            raise FrameFormatError(f"bad {name} token {tok!r}", offset=pos - len(tok))
        if value < 1:
            raise FrameFormatError(f"{name} must be >= 1, got {value}", offset=pos - len(tok))
        if value > MAX_DIM:
            raise FrameFormatError(f"{name} {value} exceeds {MAX_DIM}", offset=pos - len(tok))
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
    header comment so the file loads back losslessly (modulo quantization).
    """
    rows, cols = state.volts.shape
    if rows > MAX_DIM or cols > MAX_DIM:
        raise FrameFormatError(f"state {cols}x{rows} exceeds {MAX_DIM}x{MAX_DIM}")
    header = f"P5\n# ring {state.ring}\n{cols} {rows}\n255\n".encode("ascii")
    levels = np.rint(state.volts * 255.0).astype(np.uint8)
    return header + levels.tobytes()


def save_analog(state: AnalogState, path: str | Path) -> None:
    Path(path).write_bytes(analog_to_bytes(state))


def load_analog(path: str | Path) -> AnalogState:
    """Read a PGM (P5) snapshot written by :func:`save_analog`."""
    data = Path(path).read_bytes()
    lines = data.split(b"\n")
    if not lines or lines[0] != b"P5":
        raise FrameFormatError("not a P5 graymap", offset=0)
    ring, dims_pos = 0, 0
    fields: list[int] = []
    pos = len(lines[0]) + 1
    index = 1
    while index < len(lines) and len(fields) < 3:
        line = lines[index]
        if line.startswith(b"#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == b"ring":
                try:
                    ring = int(parts[1])
                except ValueError:
                    raise FrameFormatError(f"bad ring comment {line!r}", offset=pos)
                if ring < 0:
                    raise FrameFormatError(f"ring width must be >= 0, got {ring}", offset=pos)
        else:
            if not fields:
                dims_pos = pos
            try:
                fields.extend(int(tok) for tok in line.split())
            except ValueError:
                raise FrameFormatError(f"bad header line {line!r}", offset=pos)
        pos += len(line) + 1
        index += 1
    if len(fields) != 3:
        raise FrameFormatError("incomplete P5 header", offset=pos)
    cols, rows, maxval = fields
    if maxval != 255:
        raise FrameFormatError(f"unsupported maxval {maxval}", offset=pos)
    if rows <= 2 * ring or cols <= 2 * ring:
        raise FrameFormatError(f"{cols}x{rows} leaves no interior for ring {ring}",
                               offset=dims_pos)
    payload = data[pos:pos + rows * cols]
    if len(payload) < rows * cols:
        raise FrameFormatError(
            f"truncated payload: expected {rows * cols} bytes, got {len(payload)}",
            offset=pos + len(payload),
        )
    levels = np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols)
    return AnalogState(levels.astype(np.float64) / 255.0, ring)


# --- event stream files -------------------------------------------------------

_EVENT_STRUCT = struct.Struct("<IHHB")  # u32 t, u16 x, u16 y, u8 p; 9 bytes, no padding


def save_events_csv(events: Sequence[Event], path: str | Path) -> None:
    lines = ["t,x,y,p"]
    lines.extend(f"{e.t},{e.x},{e.y},{e.p}" for e in events)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_events_csv(path: str | Path) -> list[Event]:
    """Read a ``t,x,y,p`` CSV; enforces non-decreasing timestamps."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0].strip() != "t,x,y,p":
        raise FrameFormatError("missing 't,x,y,p' header", offset=0)
    events: list[Event] = []
    prev_t = -1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FrameFormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            t, x, y, p = (int(v) for v in parts)
        except ValueError:
            raise FrameFormatError(f"line {lineno}: non-integer field in {line!r}")
        if p not in (0, 1):
            raise FrameFormatError(f"line {lineno}: polarity must be 0 or 1, got {p}")
        if t < prev_t:
            raise FrameFormatError(f"line {lineno}: timestamps must be non-decreasing")
        prev_t = t
        events.append(Event(t, x, y, p))
    return events


def save_events_bin(events: Sequence[Event], path: str | Path) -> None:
    chunks = []
    for i, e in enumerate(events):
        if not (0 <= e.t < 2**32 and 0 <= e.x < 2**16 and 0 <= e.y < 2**16 and e.p in (0, 1)):
            raise EventRangeError(i, f"{e} not representable as (u32, u16, u16, u8-bit)")
        chunks.append(_EVENT_STRUCT.pack(e.t, e.x, e.y, e.p))
    Path(path).write_bytes(b"".join(chunks))


def load_events_bin(path: str | Path) -> list[Event]:
    data = Path(path).read_bytes()
    if len(data) % _EVENT_STRUCT.size != 0:
        raise FrameFormatError(
            f"payload length {len(data)} is not a multiple of {_EVENT_STRUCT.size}",
            offset=len(data) - len(data) % _EVENT_STRUCT.size,
        )
    events: list[Event] = []
    prev_t = -1
    for i, (t, x, y, p) in enumerate(_EVENT_STRUCT.iter_unpack(data)):
        if p not in (0, 1):
            raise FrameFormatError(f"record {i}: polarity must be 0 or 1, got {p}",
                                   offset=i * _EVENT_STRUCT.size)
        if t < prev_t:
            raise FrameFormatError(f"record {i}: timestamps must be non-decreasing",
                                   offset=i * _EVENT_STRUCT.size)
        prev_t = t
        events.append(Event(t, x, y, p))
    return events
