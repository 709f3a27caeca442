"""cram-sim command-line front end.

``COMMANDS`` declares each command once: its help, its own arguments and
its handler. The command name comes first; the command's own parser reads
the rest in one pass, so inputs, ``--config FILE``, ``--out DIR`` and
``--section.key value`` overrides go in any order. Options are spelled in
full (``--key=value`` if the value starts with ``-``), and a usage error is
one ``cram-sim: error:`` line with exit code 2. Outputs go under ``--out``
(default: current directory), created with the first output file, so a
command that fails its checks leaves none; an empty ``--out`` or one that
names an existing non-directory fails before any work. Files are written
via a temp-and-rename so an interrupted run never leaves partial output.
``propose`` and ``eval`` run each frame through ``oracle.EvalPipeline.propose``.
Worker-thread count comes from CRAM_SIM_THREADS; unset or 0 means one per CPU,
and at most MAX_THREADS threads are used.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import random
import sys
from typing import NamedTuple

from .config import RunConfig, known_keys, load_config
from .diffusion import (
    _check_max_ones,
    apply_pulses,
    blank_frame_detect,
    probe_diffusion_speed,
    threshold_restore,
)
from .errors import ConfigError, CramSimError, InputError
from .grid import analog_to_bytes, frame_to_bytes, load_frame
from .oracle import FrameSample, _pool_map, evaluate_sweep
from .projection import boxes_from_json, boxes_to_json


# Every thread that restores keeps its own workspace for the life of the
# process, so the thread count is bounded; the bound is not the CPU count,
# which would silently turn a requested 2-thread run into 1 on a 1-CPU host.
MAX_THREADS = 256


def worker_count() -> int:
    """Resolve CRAM_SIM_THREADS; 0 or unset means one per CPU, at most MAX_THREADS."""
    raw = os.environ.get("CRAM_SIM_THREADS", "").strip() or "0"
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CRAM_SIM_THREADS must be an integer, got {raw!r}") from None
    if not 0 <= n <= MAX_THREADS:
        raise ConfigError(f"CRAM_SIM_THREADS must be in [0, {MAX_THREADS}], got {raw}")
    return n or min(os.cpu_count() or 1, MAX_THREADS)


_temp_names = random.Random()  # temp-file name suffixes; not the global random state


def _open_temp(directory: str) -> tuple[str, int]:
    """Create a new temp file in directory; its random name is retried on a clash."""
    for _ in range(100):
        tmp = os.path.join(directory, f".tmp-{_temp_names.getrandbits(48):012x}~")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no unused temporary file name", directory)


def _write_bytes(path: str, data: bytes) -> None:
    """Write data to path by temp-and-rename, creating its directory if missing.

    The temp file is opened first, and the directory is created, with its
    parents, only when that open finds it missing, so an existing directory
    costs no extra check. The temp file is created with mode 0o666, so the
    file follows the process umask as a plain open() would; its random name
    is retried on a clash, as tempfile.mkstemp does. os.write is called until
    every byte is written, and on any failure the temp file is removed and
    the target is left as it was.
    """
    directory = os.path.dirname(path) or "."
    try:
        tmp, fd = _open_temp(directory)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        tmp, fd = _open_temp(directory)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def _pbm_names(directory: str) -> list[str]:
    """Sorted names of the regular files in directory whose names end in .pbm."""
    return sorted(n for n in os.listdir(directory)
                  if n.endswith(".pbm") and os.path.isfile(os.path.join(directory, n)))


def _collect_pbm_inputs(paths: list[str]) -> list[str]:
    """Expand files and directories into PBM paths, in argument order.

    A directory gives its own .pbm files in sorted order. Outputs are named
    by stem, so two inputs with one stem (the same file twice included) are
    an input error.
    """
    found: dict[str, str] = {}  # stem -> path
    for p in paths:
        if os.path.isdir(p):
            names = _pbm_names(p)
            if not names:
                raise InputError(f"no .pbm files in directory {p}")
            files = [os.path.join(p, n) for n in names]
        elif os.path.isfile(p):
            files = [p]
        else:
            raise InputError(f"input not found: {p}")
        for path in files:
            stem = _stem(path)
            if stem in found:
                raise InputError(f"inputs {found[stem]} and {path} have the same stem "
                                 f"{stem!r}; outputs are named by stem")
            found[stem] = path
    return list(found.values())


def _stem(path: str) -> str:
    return os.path.basename(path).removesuffix(".pbm")


def _map_frames(func, items: list, workers: int) -> list:
    """Apply func over items, in order, on the shared pool when workers > 1.

    A name of its own, apart from the evaluate path, so that a profiler
    hooking it sees only the commands' per-frame work.
    """
    return _pool_map(func, items, workers)


# ------------------------------------------------------------- commands


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .synth import generate_corpus

    scenes = generate_corpus(cfg.synth_config(), cfg.synth_frames)
    for i, scene in enumerate(scenes):
        base = os.path.join(args.out, f"frame_{i:05d}")
        _write_bytes(base + ".pbm", frame_to_bytes(scene.frame))
        _write_text(base + ".gt.json", boxes_to_json(scene.gt))
    print(f"wrote {len(scenes)} frames to {args.out}")
    return 0


def cmd_restore(cfg: RunConfig, args: argparse.Namespace) -> int:
    paths = _collect_pbm_inputs(args.inputs)
    dcfg = cfg.diffusion_config()
    _check_max_ones(cfg.blank_max_ones)

    def one(path: str) -> tuple[str, bool]:
        stem = _stem(path)
        state = apply_pulses(load_frame(path), dcfg)
        restored = threshold_restore(state, dcfg)
        if args.emit_analog:
            _write_bytes(os.path.join(args.out, stem + ".analog.pgm"), analog_to_bytes(state))
        _write_bytes(os.path.join(args.out, stem + ".restored.pbm"), frame_to_bytes(restored))
        return stem, blank_frame_detect(restored, max_ones=cfg.blank_max_ones)

    rows = _map_frames(one, paths, worker_count())
    lines = ["frame,blank"]
    lines += [f"{stem},{'true' if blank else 'false'}" for stem, blank in rows]
    _write_text(os.path.join(args.out, "blank.csv"), "\n".join(lines) + "\n")
    print(f"restored {len(rows)} frames to {args.out}")
    return 0


def cmd_propose(cfg: RunConfig, args: argparse.Namespace) -> int:
    paths = _collect_pbm_inputs(args.inputs)
    pipeline = cfg.pipeline(cfg.propose_restore)

    def one(path: str) -> str:
        run = pipeline.propose(load_frame(path))
        stem = _stem(path)
        _write_text(os.path.join(args.out, stem + ".boxes.json"), boxes_to_json(run.boxes))
        return ",".join(map(str, (stem, len(run.boxes), *run.cost)))

    rows = _map_frames(one, paths, worker_count())
    lines = ["frame_id,n_objects,imc_cycles,total_cycles,diffusion_ops,projection_ops"]
    _write_text(os.path.join(args.out, "cycles.csv"), "\n".join(lines + rows) + "\n")
    print(f"proposed regions for {len(rows)} frames to {args.out}")
    return 0


def _load_corpus(corpus: str) -> list[FrameSample]:
    if not os.path.isdir(corpus):
        raise InputError(f"corpus directory not found: {corpus}")
    names = [n for n in _pbm_names(corpus) if not n.endswith(".restored.pbm")]
    if not names:
        raise InputError(f"no .pbm frames in {corpus}")
    samples = []
    for name in names:
        stem = name[: -len(".pbm")]
        gt_path = os.path.join(corpus, stem + ".gt.json")
        if not os.path.isfile(gt_path):
            raise InputError(f"missing ground truth for {name}: {gt_path}")
        try:
            with open(gt_path, "r", encoding="utf-8") as fh:
                gt = boxes_from_json(fh.read())
        except (InputError, UnicodeDecodeError) as exc:
            raise InputError(f"bad ground truth {gt_path}: {exc}") from None
        frame = load_frame(os.path.join(corpus, name))
        for box in gt:
            if box.r1 >= frame.height or box.c1 >= frame.width:
                raise InputError(f"bad ground truth {gt_path}: box with x1={box.c1}, "
                                 f"y1={box.r1} outside the {frame.width}x{frame.height} frame")
        samples.append(FrameSample(frame=frame, gt=gt))
    return samples


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    samples = _load_corpus(args.corpus)
    results = evaluate_sweep(
        samples, cfg.eval_pipeline(), cfg.eval_sweep_amplitudes, cfg.eval_sweep_substeps,
        cfg.eval_iou_thresholds, workers=worker_count(),
    )
    lines = ["iou,tp,fp,fn,precision,recall,f1,setting_id,weighted_f1"]
    lines += [
        f"{r.iou_threshold:g},{r.tp},{r.fp},{r.fn},{r.precision:.6f},{r.recall:.6f},"
        f"{r.f1:.6f},{setting_id},{r.weighted_f1:.6f}"
        for setting_id, reports in results for r in reports
    ]
    path = os.path.join(args.out, "report.csv")
    _write_text(path, "\n".join(lines) + "\n")
    print(f"evaluated {len(samples)} frames; report in {path}")
    return 0


def cmd_probe(cfg: RunConfig, args: argparse.Namespace) -> int:
    dcfg = cfg.diffusion_config()
    lines = ["location,steps"]
    for location in ("center", "corner"):
        res = probe_diffusion_speed(cfg.frame_width, cfg.frame_height, location, dcfg)
        lines.append(f"{res.location},{res.steps_to_threshold}")
    path = os.path.join(args.out, "probe.csv")
    _write_text(path, "\n".join(lines) + "\n")
    print(f"probe results in {path}")
    return 0


def cmd_keys(cfg: None, args: argparse.Namespace) -> int:
    print("\n".join(known_keys()))
    return 0


# ----------------------------------------------------------- dispatcher


class Command(NamedTuple):
    help: str
    arguments: tuple[str, ...]  # its own arguments, each a key of _ARGUMENTS
    handler: str  # the name of this module's (cfg, args) -> exit code function
    configured: bool = True  # takes --config, --out and an override per key


# A handler is named, not held, and looked up at each call, so a profiler
# that replaces the module's function sees the call.
COMMANDS = {
    "synth": Command("generate a synthetic corpus", (), "cmd_synth"),
    "restore": Command("denoise frames by diffuse-and-threshold", ("inputs", "--emit-analog"),
                       "cmd_restore"),
    "propose": Command("run region proposal on frames", ("inputs",), "cmd_propose"),
    "eval": Command("score proposals against ground truth", ("corpus",), "cmd_eval"),
    "probe": Command("measure diffusion steps to threshold", (), "cmd_probe"),
    "keys": Command("list recognized configuration keys", (), "cmd_keys", configured=False),
}
_ARGUMENTS = {
    "inputs": {"nargs": "+", "help": "PBM files or directories"},
    "corpus": {"help": "directory of frame_*.pbm plus *.gt.json"},
    "--emit-analog": {"action": "store_true", "help": "also write pre-threshold voltages as PGM"},
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated option.

    A usage error raises ConfigError, so it ends, like any other, in one
    ``cram-sim: error:`` line and exit code 2.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def _top_parser() -> argparse.ArgumentParser:
    """The parser of the first argument, the command name."""
    commands = "".join(f"  {name:<9}{command.help}\n" for name, command in COMMANDS.items())
    parser = _Parser(
        prog="cram-sim", usage="%(prog)s [-h] command ...",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Behavioral simulator for a diffuse-then-project vision pipeline.\n\n"
                    f"commands:\n{commands}",
        epilog="Inputs, options and --key value overrides follow the command in any order;\n"
               "see cram-sim <command> --help for its options and cram-sim keys for the keys.",
    )
    parser.add_argument("command", choices=COMMANDS, help=argparse.SUPPRESS)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command's arguments, built on first use; parsing leaves it unchanged."""
    command = COMMANDS[name]
    parser = _Parser(prog=f"cram-sim {name}", description=command.help)
    for argument in command.arguments:
        parser.add_argument(argument, **_ARGUMENTS[argument])
    if command.configured:
        parser.add_argument("--config", default=None, help="path to a key=value config file")
        parser.add_argument("--out", default=".", help="output directory (created if missing)")
        for key in known_keys():
            parser.add_argument(f"--{key}", dest=key, default=argparse.SUPPRESS,
                                help=argparse.SUPPRESS)
    return parser


def _parse_arguments(name: str, argv: list[str]) -> argparse.Namespace:
    """The command's arguments, read in one pass.

    If the command takes inputs, the tokens left over after the first run of
    them are further inputs up to the first option among them (as argparse
    reads it), or all of them but a "--", which ends the options. Any others
    are a usage error that names them all.
    """
    parser = _command_parser(name)
    args, extra = parser.parse_known_args(argv)
    if extra and "inputs" in COMMANDS[name].arguments:
        n = 0
        while n < len(extra) and extra[n] != "--" and parser._parse_optional(extra[n]) is None:
            n += 1
        if extra[n:n + 1] == ["--"]:
            args.inputs += extra[:n] + extra[n + 1:]
            extra = []
        else:
            args.inputs += extra[:n]
            extra = extra[n:]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _one_line(message: str) -> str:
    """The message with every unprintable character escaped (a newline as \\n)."""
    return "".join(ch if ch.isprintable() else ch.encode("unicode_escape").decode("ascii")
                   for ch in message)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        name = _top_parser().parse_args(argv[:1]).command
        args = _parse_arguments(name, argv[1:])
        cfg = None
        if COMMANDS[name].configured:
            if not args.out:
                raise ConfigError("argument --out: expected a directory, got ''")
            # the keys given on the command line are the dotted names argparse set
            overrides = [(key, value) for key, value in vars(args).items() if "." in key]
            cfg = load_config(args.config, overrides)
            if os.path.exists(args.out) and not os.path.isdir(args.out):
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), args.out)
        return globals()[COMMANDS[name].handler](cfg, args)
    except (CramSimError, OSError) as exc:
        print(f"cram-sim: error: {_one_line(str(exc))}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, CramSimError) else 1


if __name__ == "__main__":
    sys.exit(main())
