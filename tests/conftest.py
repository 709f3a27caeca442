import atexit
import ctypes
import os
import shutil
import subprocess
import tempfile
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from cramsim import _ckernel
from cramsim.grid import BinaryFrame
from cramsim.projection import Box

# Build the kernels into a cache of this session's own, removed when it ends,
# so the suite leaves no library in the user's cache.
_CACHE = tempfile.mkdtemp(prefix="cramsim-test-cache-")
os.environ["XDG_CACHE_HOME"] = _CACHE
atexit.register(shutil.rmtree, _CACHE, ignore_errors=True)

needs_cc = pytest.mark.skipif(shutil.which(_ckernel._CC) is None,
                              reason="no C compiler on PATH to build the kernels")

# The sanitizer lane: under AddressSanitizer (gcc's libasan and libubsan preloaded, with
# ASAN_OPTIONS=detect_leaks=0), the kernels are built instrumented into this session's
# cache, under the name the package's own build would get, before anything loads them.
SANITIZE_FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
                  "-ffp-contract=off", "-shared", "-fPIC")


def _build_sanitized_kernels() -> None:
    if not hasattr(ctypes.CDLL(None), "__asan_init"):
        return
    cache = Path(_CACHE) / "cramsim"
    cache.mkdir(mode=0o700)
    subprocess.run([_ckernel._CC, *SANITIZE_FLAGS, "-o",
                    str(cache / f"kernel-{_ckernel._build_key()}.so"), str(_ckernel._SOURCE)],
                   check=True)


_build_sanitized_kernels()


def _compiled_kernels() -> tuple[str, ...]:
    """One entry per restore build that the compiled library holds and this CPU runs."""
    k = _ckernel.kernels()
    return () if k is None else tuple(f"compiled-{n}" for n in range(k.builds))


# The package kernels. Each bit-exact test runs on every one this host can
# build and run, in a loop, so a test keeps one name whatever the host has.
KERNELS = (*_compiled_kernels(), "numpy")


@contextmanager
def kernel_in_use(kernel: str):
    """Diffuse and search on one set of package kernels in the body, both calls that
    restore in the same build; a failed assertion names it."""
    saved = _ckernel._kernels
    if kernel == "numpy":
        _ckernel._kernels = None
    else:
        k, n = _ckernel.kernels(), int(kernel.removeprefix("compiled-"))
        _ckernel._kernels = k._replace(restore=partial(k.restore.func, n),
                                       restore_search=partial(k.restore_search.func, n))
    try:
        yield
    except AssertionError as exc:
        raise AssertionError(f"{kernel} kernel: {exc}") from exc
    finally:
        _ckernel._kernels = saved


def mutate(data: bytes, edits) -> bytes:
    """Apply (position, op, byte) edits in turn: replace, insert or delete one byte, or
    truncate, at position modulo the length so far plus one."""
    for position, op, byte in edits:
        at = position % (len(data) + 1)
        if op == "replace" and at < len(data):
            data = data[:at] + bytes([byte]) + data[at + 1:]
        elif op == "insert":
            data = data[:at] + bytes([byte]) + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + 1:]
        elif op == "truncate":
            data = data[:at]
    return data


def frame_of(art: str) -> BinaryFrame:
    """Build a frame from ASCII art: '#' or '1' is a set pixel, '.' or '0' clear."""
    rows = [line.strip() for line in art.strip().splitlines()]
    grid = np.array(
        [[1 if ch in "#1" else 0 for ch in row] for row in rows], dtype=np.uint8
    )
    return BinaryFrame(grid)


def box_rows(boxes: list[Box]) -> list[tuple[int, int, int, int]]:
    """Boxes as the (r0, r1, c0, c1) tuples that rp_update returns and matching reads."""
    return [(b.r0, b.r1, b.c0, b.c1) for b in boxes]


def box_array(boxes: list[Box]) -> np.ndarray:
    """Boxes as the (n, 4) int64 array [r0, r1, c0, c1] the search works on."""
    return np.array(box_rows(boxes), dtype=np.int64).reshape(-1, 4)
