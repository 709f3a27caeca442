"""The compiled kernels: `_kernel.c`, built with the system C compiler on first use.

The library holds one call per pipeline stage: a whole restoration, one loop
over tiles of cells (used by ``diffusion.restore_image``, which wants only
the bits, so that a charge bound decides most tiles, and by
``apply_pulses``, which wants every voltage, so that every tile is in doubt,
as it is wherever the bound does not apply), and the projection search (used
by ``projection.iss``). The restore declines with -1 when it cannot allocate
its scratch, as the search does for a frame it cannot take, and the caller
then runs its numpy kernel. It is built or loaded once per process on the
first call to :func:`kernels`, and cached per user under
``$XDG_CACHE_HOME/cramsim`` (``~/.cache/cramsim`` by default), in a file
named by a hash of the source, the compiler flags and the machine type, so
an edited source or another architecture never loads a stale build; without
a private cache it is built in a temporary directory, removed once the
library is loaded. If it cannot be built or loaded, or lacks one of the
kernels, for any reason, :func:`kernels` returns None for the rest of the
process and the callers keep their numpy kernels; nothing is printed. ctypes
releases the GIL for the length of each call.

On x86-64 the restore is compiled twice, a baseline and an AVX-512F build;
the library reports how many of its builds this CPU runs, and the restore is
bound to the widest. Only `_kernel.c` knows which builds exist. A library
built on another architecture holds the baseline alone. There is no AVX2
build: no benchmarked CPU would pick it, so its gain was never measured, and
it comes back only with a measured gain on a CPU with AVX2 but no AVX-512F.
"""

from __future__ import annotations

import functools
import os
import threading
from pathlib import Path
from typing import NamedTuple

_SOURCE = Path(__file__).with_name("_kernel.c")
_CC = "cc"
# -ffp-contract=off: no fused multiply-adds, so the bits equal the numpy kernel's.
# Never -ffast-math (reorders the arithmetic) or -march=native (a cache shared
# between hosts must load on each of them; the source's own AVX-512F build,
# picked at run time, gives the wider vectors instead).
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120


class _Kernels(NamedTuple):
    # f(pixels_addr, height, width, ring, cur_addr, nxt_addr, coupling, substeps, pulses, vth,
    #   bits_addr, analog); with analog nonzero, returns 1 if the final grid is in nxt; with
    #   analog 0 only the bits are of use, and it returns 0; -1 if it declined (no scratch)
    restore: functools.partial
    # f(pixels_addr, rows, cols, fewest, max_iters, capacity, work_addr, info_addr), a line
    # tripping at fewest enabled 1s; returns the candidate count, or -1 if it declined
    search: object
    builds: int  # the restore builds the library holds and this CPU runs; the widest is bound


_UNTRIED = object()
_kernels = _UNTRIED  # the loaded _Kernels, or None for the numpy kernels
_lock = threading.Lock()


def kernels() -> _Kernels | None:
    """The library's kernels, or None without a compiler; the first call builds or loads
    the library, and a failure is not retried."""
    global _kernels
    loaded = _kernels
    if loaded is _UNTRIED:
        with _lock:
            if _kernels is _UNTRIED:
                _kernels = _load()
            loaded = _kernels
    return loaded


def _load():
    import ctypes
    import shutil
    import subprocess
    import tempfile

    try:
        cache = _private_cache_dir()
        directory = cache or tempfile.mkdtemp(prefix="cramsim-")
        try:
            path = os.path.join(directory, f"kernel-{_build_key()}.so")
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # missing, or a broken file: build it and swap it in
                fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=directory)
                os.close(fd)
                try:
                    subprocess.run([_CC, *_FLAGS, "-o", tmp, str(_SOURCE)],
                                   stdin=subprocess.DEVNULL, capture_output=True,
                                   timeout=_COMPILE_TIMEOUT_S, check=True)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                lib = ctypes.CDLL(path)  # the mapping outlives the file
        finally:
            if directory != cache:
                shutil.rmtree(directory, ignore_errors=True)
        variants, restore, search = lib.cramsim_variants, lib.cramsim_restore, lib.cramsim_search
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    long, double, ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
    variants.argtypes = ()
    variants.restype = long
    restore.argtypes = (long, ptr, long, long, long, ptr, ptr, double, long, long, double, ptr,
                        long)
    restore.restype = long
    search.argtypes = (ptr, long, long, long, long, long, ptr, ptr)
    search.restype = long
    builds = variants()
    return _Kernels(functools.partial(restore, builds - 1), search, builds)


def _build_key() -> str:
    import hashlib
    import platform

    h = hashlib.sha256(_SOURCE.read_bytes())
    h.update("\0".join((_CC, *_FLAGS, platform.machine())).encode())
    return h.hexdigest()[:16]


def _private_cache_dir() -> str | None:
    """This user's cache directory, made 0700 if absent; None if it is unusable or shared."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    cache = os.path.join(base, "cramsim")
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
    except OSError:
        return None
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not os.access(cache, os.W_OK):
        return None
    return cache
