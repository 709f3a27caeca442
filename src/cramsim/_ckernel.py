"""The compiled kernels: `_kernel.c`, built with the system C compiler on first use.

The one source holds the diffusion substeps (:func:`substeps`, used by
``diffusion._Stencil.run``), a whole restoration around them
(:func:`restore`, used by ``diffusion.restore_image`` and ``apply_pulses``)
and the projection search (:func:`search`, used by ``projection.iss``); all
go into one shared library, built or loaded once per process on the first
call to any. The library is cached per user under ``$XDG_CACHE_HOME/cramsim``
(``~/.cache/cramsim`` by default), in a file named by a hash of the source,
the compiler flags and the machine type, so an edited source or another
architecture never loads a stale build. If it cannot be built or loaded, or
lacks one of the kernels, for any reason, all three functions return None for
the rest of the process and the callers keep their numpy kernels; nothing is
printed. ctypes releases the GIL for the length of each call.

The substep body is compiled in several variants, one per instruction set
(:data:`VARIANTS`); on first use the library reports which of them this CPU
runs, and both diffusion kernels use the widest. A library built on another
architecture holds the baseline alone.
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
# between hosts must load on each of them; the source's own AVX2 and AVX-512F
# variants, picked at run time, give the wider vectors instead).
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120


# The builds of the substep body in `_kernel.c`, in its order: by rising ISA.
VARIANTS = ("baseline", "avx2", "avx512f")


class _Kernels(NamedTuple):
    substeps: object
    restore: object
    search: object
    runnable: tuple[str, ...]  # the builds this library holds and this CPU runs
    lib: object


_UNTRIED = object()
_kernels = _UNTRIED  # the loaded _Kernels, or None for the numpy kernels
_lock = threading.Lock()


def _loaded():
    """The library's kernels; the first call builds or loads it, and a failure is not retried."""
    global _kernels
    kernels = _kernels
    if kernels is _UNTRIED:
        with _lock:
            if _kernels is _UNTRIED:
                _kernels = _load()
            kernels = _kernels
    return kernels


def substeps():
    """``f(cur_addr, nxt_addr, rows, cols, coupling, substeps)``, or None without a compiler."""
    kernels = _loaded()
    return None if kernels is None else kernels.substeps


def restore():
    """``f(pixels_addr, height, width, ring, cur_addr, nxt_addr, coupling, substeps, pulses,
    vth, bits_addr)``, or None without a compiler; it returns 1 if the final grid is in nxt."""
    kernels = _loaded()
    return None if kernels is None else kernels.restore


def search():
    """``f(pixels_addr, rows, cols, trips_addr, max_iters, capacity, work_addr, info_addr)``,
    or None without a compiler; it returns the candidate count, or -1 if it declined."""
    kernels = _loaded()
    return None if kernels is None else kernels.search


def _load():
    import ctypes
    import shutil
    import subprocess
    import tempfile

    def build(path: str) -> None:
        subprocess.run([_CC, *_FLAGS, "-o", path, str(_SOURCE)], stdin=subprocess.DEVNULL,
                       capture_output=True, timeout=_COMPILE_TIMEOUT_S, check=True)

    try:
        cache = _private_cache_dir()
        if cache is None:
            scratch = tempfile.mkdtemp(prefix="cramsim-")
            try:
                path = os.path.join(scratch, "kernel.so")
                build(path)
                lib = ctypes.CDLL(path)  # the mapping outlives the file
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        else:
            path = os.path.join(cache, f"kernel-{_build_key()}.so")
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # missing, or a broken file: build it and swap it in
                fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=cache)
                os.close(fd)
                try:
                    build(tmp)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                lib = ctypes.CDLL(path)
        functions = (lib.cramsim_variants, lib.cramsim_substeps, lib.cramsim_restore,
                     lib.cramsim_search)
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    variants, substeps, restore, search = functions
    long, double, ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
    variants.argtypes = ()
    variants.restype = long
    substeps.argtypes = (long, ptr, ptr, long, long, double, long)
    substeps.restype = None
    restore.argtypes = (long, ptr, long, long, long, ptr, ptr, double, long, long, double, ptr)
    restore.restype = long
    search.argtypes = (ptr, long, long, ptr, long, long, ptr, ptr)
    search.restype = long
    runnable = VARIANTS[:variants()]
    return _bind(lib, runnable, runnable[-1])


def _bind(lib, runnable: tuple[str, ...], variant: str) -> _Kernels:
    """The library's kernels, with both diffusion kernels running the given substep build."""
    number = VARIANTS.index(variant)
    return _Kernels(functools.partial(lib.cramsim_substeps, number),
                    functools.partial(lib.cramsim_restore, number),
                    lib.cramsim_search, runnable, lib)


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
