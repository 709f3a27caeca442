"""The compiled diffusion substep: `_substep.c`, built with the system C compiler on first use.

The shared library is cached per user under ``$XDG_CACHE_HOME/cramsim``
(``~/.cache/cramsim`` by default), in a file named by a hash of the source,
the compiler flags and the machine type, so an edited source or another
architecture never loads a stale build. If it cannot be built or loaded, for
any reason, :func:`substeps` returns None for the rest of the process and the
caller keeps its numpy kernel; nothing is printed.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

_SOURCE = Path(__file__).with_name("_substep.c")
_CC = "cc"
# -ffp-contract=off: no fused multiply-adds, so the bits equal the numpy kernel's.
# Never -ffast-math (reorders the arithmetic) or -march=native (a cache shared
# between hosts must load on each of them).
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120

_UNTRIED = object()
_kernel = _UNTRIED  # the loaded function, or None for the numpy kernel
_lock = threading.Lock()


def substeps():
    """``f(cur_addr, nxt_addr, rows, cols, coupling, substeps)``, or None without a compiler.

    The first call builds or loads the library; a failure is not retried.
    ctypes releases the GIL for the length of each call.
    """
    global _kernel
    kernel = _kernel
    if kernel is _UNTRIED:
        with _lock:
            if _kernel is _UNTRIED:
                _kernel = _load()
            kernel = _kernel
    return kernel


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
                path = os.path.join(scratch, "substep.so")
                build(path)
                lib = ctypes.CDLL(path)  # the mapping outlives the file
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        else:
            path = os.path.join(cache, f"substep-{_build_key()}.so")
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # missing, or a broken file: build it and swap it in
                fd, tmp = tempfile.mkstemp(prefix=".substep-", suffix=".so", dir=cache)
                os.close(fd)
                try:
                    build(tmp)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                lib = ctypes.CDLL(path)
        fn = lib.cramsim_substeps
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
                   ctypes.c_double, ctypes.c_long)
    fn.restype = None
    return fn


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
