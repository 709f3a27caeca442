"""Building and loading the compiled kernels: every failure falls back to numpy, silently."""

import functools
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import needs_cc
from cramsim import _ckernel
from cramsim.diffusion import DiffusionConfig, apply_pulses, restore_image
from cramsim.grid import BinaryFrame
from cramsim.projection import RpConfig, iss

PACKAGE = Path(_ckernel.__file__).parent
# The library that this session built (tests/conftest.py), found before a test moves the cache.
SESSION_LIBRARY = Path(os.environ["XDG_CACHE_HOME"], "cramsim",
                       f"kernel-{_ckernel._build_key()}.so")


def outputs() -> tuple:
    """What both kernels compute: a pulse train, its restored frame and a search."""
    frame = BinaryFrame((np.random.default_rng(3).random((30, 41)) < 0.3).astype(np.uint8))
    cfg = DiffusionConfig(pulses=2)
    found = iss(frame, RpConfig())
    return (apply_pulses(frame, cfg).volts.tobytes(), restore_image(frame, cfg).pixels.tobytes(),
            found.candidates.tobytes(), found.iterations, found.trace, found.projection_cells)


def kernels_loaded() -> bool:
    return _ckernel.kernels() is not None


@pytest.fixture
def numpy_outputs(monkeypatch):
    monkeypatch.setattr(_ckernel, "_kernels", None)
    return outputs()


@pytest.fixture
def first_use(monkeypatch, tmp_path, numpy_outputs):
    """A process that has not tried the kernel yet, with its cache and cwd under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_ckernel, "_kernels", _ckernel._UNTRIED)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    return tmp_path


@pytest.fixture
def session_build(monkeypatch, first_use):
    """A stand-in compiler that copies this session's build of the library to its -o
    path, so that a loader test builds nothing of its own."""
    if not SESSION_LIBRARY.exists():  # the session's cache was unusable: build for real
        return
    cc = first_use / "cc"
    cc.write_text(f'#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n'
                  f'exec cp "{SESSION_LIBRARY}" "$2"\n')
    cc.chmod(0o755)
    monkeypatch.setattr(_ckernel, "_CC", str(cc))


def build_temp_dirs_in(monkeypatch, path: Path) -> None:
    monkeypatch.setattr(tempfile, "mkdtemp", functools.partial(tempfile.mkdtemp, dir=str(path)))


def cached_libraries(tmp_path: Path) -> list[Path]:
    return sorted((tmp_path / "cache" / "cramsim").glob("*"))


def test_missing_compiler_falls_back(first_use, numpy_outputs, monkeypatch, capfd):
    monkeypatch.setattr(_ckernel, "_CC", "cramsim-no-such-compiler")
    assert outputs() == numpy_outputs
    assert not kernels_loaded()
    assert capfd.readouterr() == ("", "")


@needs_cc
def test_source_that_fails_to_compile_falls_back(first_use, numpy_outputs, monkeypatch, capfd):
    broken = first_use / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_ckernel, "_SOURCE", broken)
    assert outputs() == numpy_outputs
    assert not kernels_loaded()
    assert capfd.readouterr() == ("", "")
    assert cached_libraries(first_use) == []  # the failed build's temp file is gone


@needs_cc
def test_unusable_cache_builds_in_a_private_temp_dir(first_use, numpy_outputs, session_build,
                                                      monkeypatch, capfd):
    """A cache path that cannot be a directory: the build goes to a temp dir, then that goes."""
    (first_use / "cache").write_text("a file where the cache directory should be\n")
    (first_use / "tmp").mkdir()
    build_temp_dirs_in(monkeypatch, first_use / "tmp")
    assert outputs() == numpy_outputs
    assert kernels_loaded()
    assert list((first_use / "tmp").iterdir()) == []
    assert capfd.readouterr() == ("", "")


@needs_cc
def test_shared_cache_is_never_loaded_from(first_use, numpy_outputs, session_build, monkeypatch):
    shared = first_use / "cache" / "cramsim"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    (first_use / "tmp").mkdir()
    build_temp_dirs_in(monkeypatch, first_use / "tmp")
    assert outputs() == numpy_outputs
    assert kernels_loaded()
    assert list(shared.iterdir()) == []


def test_nowhere_to_build_falls_back(first_use, numpy_outputs, monkeypatch, capfd):
    (first_use / "cache").write_text("not a directory\n")
    build_temp_dirs_in(monkeypatch, first_use / "cache" / "tmp")
    assert outputs() == numpy_outputs
    assert not kernels_loaded()
    assert capfd.readouterr() == ("", "")


@needs_cc
def test_truncated_library_in_the_cache_is_rebuilt(first_use, numpy_outputs, session_build,
                                                    capfd):
    cache = first_use / "cache" / "cramsim"
    cache.mkdir(parents=True, mode=0o700)
    stale = cache / f"kernel-{_ckernel._build_key()}.so"
    stale.write_bytes(b"\x7fELF\x02\x01\x01")
    assert outputs() == numpy_outputs
    assert kernels_loaded()
    assert stale.stat().st_size > 1000
    assert cached_libraries(first_use) == [stale]
    assert capfd.readouterr() == ("", "")


def cache_library_built_from(first_use: Path, source: str) -> None:
    """Build the source into the cache, under the name the package's own build would get;
    at -O0 (the last -O counts), which builds it about ten times faster."""
    cache = first_use / "cache" / "cramsim"
    cache.mkdir(parents=True, mode=0o700)
    edited = first_use / "edited.c"
    edited.write_text(source)
    subprocess.run([_ckernel._CC, *_ckernel._FLAGS, "-O0", "-o",
                    str(cache / f"kernel-{_ckernel._build_key()}.so"), str(edited)], check=True)


@needs_cc
def test_library_without_the_search_falls_back_for_both_kernels(first_use, numpy_outputs,
                                                                 capfd):
    """One decision for the library: a cached build that lacks one kernel runs neither."""
    source = _ckernel._SOURCE.read_text()
    cache_library_built_from(first_use, source[:source.index("/* The set pixels still inside")])
    assert outputs() == numpy_outputs
    assert not kernels_loaded()
    assert capfd.readouterr() == ("", "")


@needs_cc
def test_library_without_the_restore_falls_back_for_every_kernel(first_use, numpy_outputs,
                                                                  capfd):
    source = _ckernel._SOURCE.read_text()
    start = source.index("/* The whole restoration of diffusion.restore_image in one call")
    end = source.index("/* The set pixels still inside")
    cache_library_built_from(first_use, source[:start] + source[end:])
    assert outputs() == numpy_outputs
    assert not kernels_loaded()
    assert capfd.readouterr() == ("", "")


@needs_cc
def test_library_without_isa_variants_runs_the_compiled_baseline(first_use, numpy_outputs,
                                                                  capfd):
    """A build for another architecture holds the baseline restore alone, and runs it."""
    source = _ckernel._SOURCE.read_text()
    assert source.count("defined(__x86_64__)") == 1
    cache_library_built_from(first_use, source.replace("defined(__x86_64__)", "0"))
    assert outputs() == numpy_outputs
    k = _ckernel.kernels()
    assert k is not None and k.builds == 1
    assert k.restore.args == (0,)
    assert capfd.readouterr() == ("", "")


@needs_cc
def test_widest_variant_runs_and_unrunnable_numbers_run_the_baseline():
    """The loader picks the widest build this CPU runs; the library runs the baseline for
    a variant number that it lacks or that this CPU cannot run."""
    loaded = _ckernel.kernels()
    assert loaded.restore.args == (loaded.builds - 1,)
    frame = BinaryFrame((np.random.default_rng(4).random((9, 13)) < 0.4).astype(np.uint8))
    cfg = DiffusionConfig(pulses=2)

    def restore(number):
        cur, nxt = np.zeros(13 * 17), np.zeros(13 * 17)
        bits = np.empty((9, 13), np.uint8)
        swapped = loaded.restore.func(number, frame.pixels.ctypes.data, 9, 13, 1,
                                      cur.ctypes.data, nxt.ctypes.data, cfg.coupling,
                                      cfg.substeps_per_pulse, cfg.pulses, cfg.vth,
                                      bits.ctypes.data, 1)
        return swapped, (nxt if swapped else cur).tobytes(), bits.tobytes()

    baseline = restore(0)
    # 2: no library holds more than the baseline and the AVX-512F build
    for number in (loaded.builds, 2, -1, 99):
        assert restore(number) == baseline


def _cpu_flags() -> set[str]:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


@needs_cc
@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.machine() != "x86_64",
                    reason="reads the x86 flags of /proc/cpuinfo")
def test_avx512f_build_is_bound_exactly_where_the_cpu_has_avx512f():
    """The library binds its AVX-512F build on a CPU that reports avx512f, else the baseline."""
    assert _ckernel.kernels().builds == 1 + ("avx512f" in _cpu_flags())


@needs_cc
def test_first_use_builds_once_into_the_cache_only(first_use, numpy_outputs, session_build,
                                                    monkeypatch):
    """Two threads on first use share one load; files appear only in the 0700 cache."""
    package_files = sorted(PACKAGE.rglob("*"))
    loads = []
    load = _ckernel._load

    def slow_load():
        loads.append(threading.get_ident())
        time.sleep(0.05)  # hold the first load open while the other thread arrives
        return load()

    monkeypatch.setattr(_ckernel, "_load", slow_load)
    results = [None, None]

    def work(i):
        results[i] = outputs()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert results == [numpy_outputs, numpy_outputs]
    assert len(loads) == 1
    assert kernels_loaded()
    library = first_use / "cache" / "cramsim" / f"kernel-{_ckernel._build_key()}.so"
    assert cached_libraries(first_use) == [library]  # one library holds both kernels
    assert os.stat(first_use / "cache" / "cramsim").st_mode & 0o777 == 0o700
    assert list(Path.cwd().iterdir()) == []
    assert sorted(PACKAGE.rglob("*")) == package_files


@needs_cc
def test_search_declines_more_set_pixels_than_it_has_room_for():
    """The kernel never writes past its work rows: it returns -1 instead."""
    pixels = np.ones((3, 5), dtype=np.uint8)
    work = np.zeros((16, 4), np.int32)  # one row beyond the room the kernel is told of
    info = np.zeros(18, np.int64)
    search = _ckernel.kernels().search
    assert search(pixels.ctypes.data, 3, 5, 1, 16, 14, work.ctypes.data, info.ctypes.data) == -1
    assert not work[14:].any()
    assert search(pixels.ctypes.data, 3, 5, 1, 16, 15, work.ctypes.data, info.ctypes.data) == 1
    assert work[0].tolist() == [0, 2, 0, 4] and info[:2].tolist() == [2, 1]


@needs_cc
def test_search_declines_a_trip_count_below_one():
    """With fewest 0 an empty line would trip, and a run without a point could overrun the
    candidate rows: the kernel returns -1 instead."""
    pixels = np.eye(3, 5, dtype=np.uint8)
    work = np.zeros((3, 4), np.int32)
    info = np.zeros(18, np.int64)
    search = _ckernel.kernels().search
    for fewest in (0, -1):
        assert search(pixels.ctypes.data, 3, 5, fewest, 16, 3, work.ctypes.data,
                      info.ctypes.data) == -1
    assert not work.any() and not info.any()
