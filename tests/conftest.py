import shutil
from contextlib import contextmanager

import numpy as np
import pytest

from cramsim import _ckernel
from cramsim.grid import BinaryFrame
from cramsim.projection import Box

needs_cc = pytest.mark.skipif(shutil.which(_ckernel._CC) is None,
                              reason="no C compiler on PATH to build the kernels")


def _compiled_kernels() -> tuple[str, ...]:
    """One entry per substep build that the compiled library holds and this CPU runs."""
    loaded = _ckernel._loaded()
    return () if loaded is None else tuple(f"compiled-{v}" for v in loaded.runnable)


# The package kernels. Each bit-exact test runs on every one this host can
# build and run, in a loop, so a test keeps one name whatever the host has.
KERNELS = (*_compiled_kernels(), "numpy")


@contextmanager
def kernel_in_use(kernel: str):
    """Diffuse and search on one set of package kernels in the body; a failed
    assertion names it."""
    saved = _ckernel._kernels
    if kernel == "numpy":
        _ckernel._kernels = None
    else:
        loaded = _ckernel._loaded()
        _ckernel._kernels = _ckernel._bind(loaded.lib, loaded.runnable,
                                           kernel.removeprefix("compiled-"))
    try:
        yield
    except AssertionError as exc:
        raise AssertionError(f"{kernel} kernel: {exc}") from exc
    finally:
        _ckernel._kernels = saved


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
