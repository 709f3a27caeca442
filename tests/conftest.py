import numpy as np

from cramsim.grid import BinaryFrame
from cramsim.projection import Box


def frame_of(art: str) -> BinaryFrame:
    """Build a frame from ASCII art: '#' or '1' is a set pixel, '.' or '0' clear."""
    rows = [line.strip() for line in art.strip().splitlines()]
    grid = np.array(
        [[1 if ch in "#1" else 0 for ch in row] for row in rows], dtype=np.uint8
    )
    return BinaryFrame(grid)


def box_array(boxes: list[Box]) -> np.ndarray:
    """Boxes as the (n, 4) int64 array [r0, r1, c0, c1] the search works on."""
    rows = [[b.r0, b.r1, b.c0, b.c1] for b in boxes]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)
