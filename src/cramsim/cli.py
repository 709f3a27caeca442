"""cram-sim command-line front end.

Five subcommands cover the pipeline end to end:

  synth    write a synthetic corpus (PBM frames + ground-truth boxes)
  restore  diffuse-and-threshold input frames, flag blank results
  propose  run region proposal on input frames, report cycle counts
  eval     score proposals against ground truth over a corpus
  probe    measure diffusion step counts at center and corner

``keys`` lists the configuration keys. The other five take ``--config
FILE`` and a ``--section.key value`` override for any key, in any order
after the command and spelled in full (``--key=value`` if the value starts
with ``-``); one argparse parser reads them all, so a usage error is one
``cram-sim: error:`` line with exit code 2. Outputs go under ``--out``
(default: current directory), which is created with the first output
file, so a command that fails its checks leaves none; an ``--out`` that
names an existing non-directory fails before any work.
Files are written via a temp-and-rename so an interrupted run never
leaves partial output.
Worker-thread count comes from the CRAM_SIM_THREADS environment
variable; unset or 0 means one worker per CPU.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import tempfile

from .config import RunConfig, known_keys, load_config
from .diffusion import (
    _check_max_ones,
    apply_pulses,
    blank_frame_detect,
    probe_diffusion_speed,
    restore_image,
    threshold_restore,
)
from .errors import ConfigError, CramSimError, InputError
from .grid import analog_to_bytes, frame_to_bytes, load_frame
from .oracle import FrameSample, _pool_map, evaluate_sweep
from .projection import boxes_from_json, boxes_to_json, region_propose
from .timing import cost_report


def worker_count() -> int:
    """Resolve CRAM_SIM_THREADS; 0 or unset means one per CPU."""
    raw = os.environ.get("CRAM_SIM_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CRAM_SIM_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ConfigError("CRAM_SIM_THREADS must be >= 0")
    return n if n > 0 else (os.cpu_count() or 1)


def _write_bytes(path: str, data: bytes) -> None:
    """Write data to path by temp-and-rename, creating its directory if missing."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    name = os.path.basename(path)
    if name.endswith(".pbm"):
        name = name[: -len(".pbm")]
    return name


def _map_frames(func, items: list, workers: int) -> list:
    """Apply func over items, in order, on the shared pool when workers > 1.

    A name of its own, apart from the evaluate path, so that a profiler
    hooking it sees only the commands' per-frame work.
    """
    return _pool_map(func, items, workers)


# ---------------------------------------------------------------- synth


def cmd_synth(cfg: RunConfig, out: str) -> int:
    from .synth import generate_corpus

    scenes = generate_corpus(cfg.synth_config(), cfg.synth_frames)
    for i, scene in enumerate(scenes):
        base = os.path.join(out, f"frame_{i:05d}")
        _write_bytes(base + ".pbm", frame_to_bytes(scene.frame))
        _write_text(base + ".gt.json", boxes_to_json(scene.gt))
    print(f"wrote {len(scenes)} frames to {out}")
    return 0


# -------------------------------------------------------------- restore


def cmd_restore(cfg: RunConfig, inputs: list[str], out: str, emit_analog: bool) -> int:
    paths = _collect_pbm_inputs(inputs)
    dcfg = cfg.diffusion_config()
    _check_max_ones(cfg.blank_max_ones)

    def one(path: str) -> tuple[str, bool]:
        stem = _stem(path)
        state = apply_pulses(load_frame(path), dcfg)
        restored = threshold_restore(state, dcfg)
        if emit_analog:
            _write_bytes(os.path.join(out, stem + ".analog.pgm"), analog_to_bytes(state))
        _write_bytes(os.path.join(out, stem + ".restored.pbm"), frame_to_bytes(restored))
        return stem, blank_frame_detect(restored, max_ones=cfg.blank_max_ones)

    rows = _map_frames(one, paths, worker_count())
    lines = ["frame,blank"]
    lines += [f"{stem},{'true' if blank else 'false'}" for stem, blank in rows]
    _write_text(os.path.join(out, "blank.csv"), "\n".join(lines) + "\n")
    print(f"restored {len(rows)} frames to {out}")
    return 0


# -------------------------------------------------------------- propose


def cmd_propose(cfg: RunConfig, inputs: list[str], out: str) -> int:
    paths = _collect_pbm_inputs(inputs)
    dcfg = cfg.diffusion_config()
    rp = cfg.rp_config()
    substeps = dcfg.pulses * dcfg.substeps_per_pulse if cfg.propose_restore else 0

    def one(path: str) -> str:
        frame = load_frame(path)
        if cfg.propose_restore:
            frame = restore_image(frame, dcfg)
        res = region_propose(frame, rp)
        cells = (frame.height + 2 * dcfg.ring) * (frame.width + 2 * dcfg.ring)
        stem = _stem(path)
        _write_text(os.path.join(out, stem + ".boxes.json"), boxes_to_json(res.boxes))
        return ",".join(map(str, (stem, len(res.boxes), *cost_report(res, substeps, cells))))

    rows = _map_frames(one, paths, worker_count())
    lines = ["frame_id,n_objects,imc_cycles,total_cycles,diffusion_ops,projection_ops"]
    _write_text(os.path.join(out, "cycles.csv"), "\n".join(lines + rows) + "\n")
    print(f"proposed regions for {len(rows)} frames to {out}")
    return 0


# ----------------------------------------------------------------- eval


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


def cmd_eval(cfg: RunConfig, corpus: str, out: str) -> int:
    samples = _load_corpus(corpus)
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
    _write_text(os.path.join(out, "report.csv"), "\n".join(lines) + "\n")
    print(f"evaluated {len(samples)} frames; report in {out}/report.csv")
    return 0


# ---------------------------------------------------------------- probe


def cmd_probe(cfg: RunConfig, out: str) -> int:
    dcfg = cfg.diffusion_config()
    lines = ["location,steps"]
    for location in ("center", "corner"):
        res = probe_diffusion_speed(cfg.frame_width, cfg.frame_height, location, dcfg)
        lines.append(f"{res.location},{res.steps_to_threshold}")
    _write_text(os.path.join(out, "probe.csv"), "\n".join(lines) + "\n")
    print(f"probe results in {out}/probe.csv")
    return 0


# ----------------------------------------------------------- dispatcher


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
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="cram-sim",
        description="Behavioral simulator for a diffuse-then-project vision pipeline.",
        epilog="Any configuration key may be overridden as --key value; "
               "see cram-sim keys for the list.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)  # the options of every command but keys
    common.add_argument("--config", default=None, help="path to a key=value config file")
    common.add_argument("--out", default=".", help="output directory (created if missing)")
    for key in known_keys():
        common.add_argument(f"--{key}", dest=key, default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")

    p_restore = sub.add_parser("restore", parents=[common],
                               help="denoise frames by diffuse-and-threshold")
    p_restore.add_argument("inputs", nargs="+", help="PBM files or directories")
    p_restore.add_argument("--emit-analog", action="store_true",
                           help="also write pre-threshold voltages as PGM")

    p_propose = sub.add_parser("propose", parents=[common], help="run region proposal on frames")
    p_propose.add_argument("inputs", nargs="+", help="PBM files or directories")

    p_eval = sub.add_parser("eval", parents=[common], help="score proposals against ground truth")
    p_eval.add_argument("corpus", help="directory of frame_*.pbm plus *.gt.json")

    sub.add_parser("probe", parents=[common], help="measure diffusion steps to threshold")

    sub.add_parser("keys", help="list recognized configuration keys")
    return parser


def _one_line(message: str) -> str:
    """The message with every unprintable character escaped (a newline as \\n)."""
    return "".join(ch if ch.isprintable() else ch.encode("unicode_escape").decode("ascii")
                   for ch in message)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "keys":
            for key in known_keys():
                print(key)
            return 0
        # the keys given on the command line are the dotted names argparse set
        overrides = [(name, value) for name, value in vars(args).items() if "." in name]
        cfg = load_config(args.config, overrides)
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), args.out)
        if args.command == "synth":
            return cmd_synth(cfg, args.out)
        if args.command == "restore":
            return cmd_restore(cfg, args.inputs, args.out, args.emit_analog)
        if args.command == "propose":
            return cmd_propose(cfg, args.inputs, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.corpus, args.out)
        return cmd_probe(cfg, args.out)  # argparse admits no other command
    except CramSimError as exc:
        print(f"cram-sim: error: {_one_line(str(exc))}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"cram-sim: error: {_one_line(str(exc))}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
