#!/usr/bin/env python3
"""cramsim benchmark: three closed-loop workloads against the public API and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload eval_restore_320 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                  # every workload, one table
    python3 perfbench/run.py --smoke          # tiny corpus, one pass each

Each workload draws its frames, by ``--seed``, from a fixed pool of
synthetic scenes whose expected outputs (boxes and ``cycles.csv`` rows)
were recorded from commit ``adf12a1`` in ``reference.json``.  One client
calls the entry point in a closed loop; every call's output is checked,
and a frame whose output differs counts as failed.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
separately traced run.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, ".results")
REFERENCE = os.path.join(HERE, "reference.json")

THRESHOLDS = [0.3, 0.5, 0.7]
COST_COLUMNS = ("n_objects", "imc_cycles", "total_cycles", "diffusion_ops", "projection_ops")
CLI_THREADS = 2  # CRAM_SIM_THREADS for every in-process cram-sim call
SETUP_REPEATS = 5
MIN_CALLS = 110  # so that at least ten calls lie beyond p90
WINDOWS = 10  # frames_per_s and call_ms_p50 are medians over this many slices of the calls

# name -> unit; the order is the order printed
END_TO_END = {
    "frames_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
    "f1_iou50": "fraction",
    "imc_cycles_per_frame": "cycles",
    "total_cycles_per_frame": "cycles",
    "projection_ops_per_frame": "ops",
    "modeled_ops_per_frame": "ops",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# cramsim modules, bound by import_cramsim().  Calls go through the module
# attributes so that the tracer's wrappers see them.
cli = config = grid = oracle = projection = synth = None


def import_cramsim() -> None:
    """Import the package from this checkout's ``src``, never from elsewhere."""
    global cli, config, grid, oracle, projection, synth
    init = os.path.join(SRC, "cramsim", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no cramsim sources at {init}")
    sys.path.insert(0, SRC)
    import cramsim
    if os.path.realpath(cramsim.__file__) != os.path.realpath(init):
        raise BenchError(f"imported cramsim from {cramsim.__file__}, not {init}")
    from cramsim import cli, config, grid, oracle, projection, synth


# --------------------------------------------------------------- outputs


def frame_digest(boxes_json: str, row: dict[str, str]) -> str:
    """Digest of one frame's boxes and modeled-cost row, independent of formatting."""
    boxes = sorted((b["y0"], b["x0"], b["y1"], b["x1"]) for b in json.loads(boxes_json))
    cost = ",".join(row[c] for c in COST_COLUMNS)
    return hashlib.sha256(f"{boxes}|{cost}".encode()).hexdigest()[:12]


def read_propose_outputs(out: str, stems: list[str]) -> dict[str, tuple[str, dict]]:
    """stem -> (boxes.json text, cycles.csv row) from one ``propose`` run; removes them."""
    cycles = os.path.join(out, "cycles.csv")
    with open(cycles, encoding="utf-8") as fh:
        rows = {r["frame_id"]: r for r in csv.DictReader(fh)}
    os.unlink(cycles)
    result = {}
    for stem in stems:
        path = os.path.join(out, stem + ".boxes.json")
        if stem in rows and os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                result[stem] = (fh.read(), rows[stem])
            os.unlink(path)
    return result


def run_cli(argv: list[str]) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


# ------------------------------------------------------------- workloads


@dataclass
class Corpus:
    """One run's frames: pool indices, scenes, and the PBM files written for them."""

    dir: str
    pool_ids: list[int]
    scenes: list
    stems: list[str]

    @property
    def paths(self) -> list[str]:
        return [os.path.join(self.dir, stem + ".pbm") for stem in self.stems]


class Workload:
    """A pool of scenes, a batch size, one timed entry-point call and its check."""

    name = ""
    pool_seed = 0
    pool = 0  # scenes in the pool
    frames = 0  # scenes per run
    batch = 1  # frames per call
    smoke_frames = 0
    workers = 1
    cli_args: tuple[str, ...] = ()  # propose overrides giving this pipeline's cycles.csv
    costs_from_calls = False  # the timed calls write cycles.csv themselves

    def synth_config(self):
        raise NotImplementedError

    def scene(self, pool_id: int):
        cfg = replace(self.synth_config(), seed=self.pool_seed + pool_id)
        return synth.generate_corpus(cfg, 1)[0]

    def build(self, root: str, pool_ids: list[int]) -> Corpus:
        """Generate the scenes and write their frames as ``cram-sim synth`` would.

        Ground truth stays in memory: no timed call reads it from disk.
        Files of an earlier build are overwritten in place, not deleted
        first: deleting hundreds of small files makes the time of the
        next writes swing widely on a shared disk.
        """
        os.makedirs(os.path.join(root, "out"), exist_ok=True)
        scenes, stems = [], []
        for j, k in enumerate(pool_ids):
            scene = self.scene(k)
            stem = f"frame_{j:04d}"
            with open(os.path.join(root, stem + ".pbm"), "wb") as fh:
                fh.write(grid.frame_to_bytes(scene.frame))
            scenes.append(scene)
            stems.append(stem)
        return Corpus(root, list(pool_ids), scenes, stems)

    def prepare(self, corpus: Corpus, reference: dict) -> None:
        self.corpus = corpus
        self.reference = reference

    def warm_up(self) -> None:
        self.call(list(range(self.batch)))

    def call(self, batch: list[int]):
        raise NotImplementedError

    def check(self, batch: list[int], output) -> list[tuple[bool, object]]:
        """Per frame of the batch: whether its output is right, and that output."""
        raise NotImplementedError

    def boxes(self, result) -> list:
        return result


class EvalRestore320(Workload):
    """``oracle.evaluate`` with the paper pipeline, 2 workers, 320x240 noisy frames."""

    name = "eval_restore_320"
    pool_seed = 1_000_000
    pool = 512
    frames = 256
    batch = 8
    smoke_frames = 8
    workers = 2
    cli_args = ("--propose.restore", "true")

    def synth_config(self):
        return config.RunConfig(noise_density=0.01, fragment_gap=2).synth_config()

    def prepare(self, corpus, reference):
        super().prepare(corpus, reference)
        self.samples = [oracle.FrameSample(s.frame, s.gt) for s in corpus.scenes]
        self.pipeline = oracle.EvalPipeline(restore=True, consolidate=True)

    def call(self, batch):
        return oracle.evaluate([self.samples[i] for i in batch], self.pipeline,
                               THRESHOLDS, workers=self.workers)

    def check(self, batch, reports):
        want = [[0, 0, 0] for _ in THRESHOLDS]
        for i in batch:
            counts = self.reference["counts"][self.corpus.pool_ids[i]]
            for t, triple in enumerate(counts):
                for k in range(3):
                    want[t][k] += triple[k]
        got = [[r.tp, r.fp, r.fn] for r in reports]
        return [(got == want, None)] * len(batch)


class ProposeRaw320(Workload):
    """In-process ``cram-sim propose`` on PBM files, no restoration, 2 threads."""

    name = "propose_raw_320"
    pool_seed = 1_000_000
    pool = 512
    frames = 160
    batch = 2
    smoke_frames = 4
    workers = CLI_THREADS
    costs_from_calls = True

    synth_config = EvalRestore320.synth_config

    def prepare(self, corpus, reference):
        super().prepare(corpus, reference)
        self.paths = corpus.paths
        self.out = os.path.join(corpus.dir, "out")

    def warm_up(self):
        super().warm_up()
        shutil.rmtree(self.out)
        os.makedirs(self.out)

    def call(self, batch):
        return run_cli(["propose", *(self.paths[i] for i in batch), "--out", self.out])

    def check(self, batch, code):
        stems = [self.corpus.stems[i] for i in batch]
        outputs = read_propose_outputs(self.out, stems) if code == 0 else {}
        checked = []
        for i, stem in zip(batch, stems):
            got = outputs.get(stem)
            want = self.reference["digests"][self.corpus.pool_ids[i]]
            checked.append((got is not None and frame_digest(*got) == want, got))
        return checked

    def boxes(self, result):
        return projection.boxes_from_json(result[0])


class Oracle64(Workload):
    """``region_propose`` and ``oracle.ccl`` on clean 64x64 frames, 1 thread."""

    name = "oracle_64"
    pool_seed = 2_000_000
    pool = 2048
    frames = 512
    batch = 1
    smoke_frames = 16
    cli_args = ("--rp.size_min", "1", "--rp.slot_r", "0", "--rp.slot_c", "0")

    def synth_config(self):
        return synth.SynthConfig(width=64, height=64, objects_min=1, objects_max=5,
                                 side_min=6, side_max=12, band_min=2)

    def prepare(self, corpus, reference):
        super().prepare(corpus, reference)
        self.rp = projection.RpConfig(size_min=1, slot_r=0, slot_c=0)

    def call(self, batch):
        frames = [self.corpus.scenes[i].frame for i in batch]
        return [(projection.region_propose(f, self.rp).boxes, oracle.ccl(f)) for f in frames]

    def check(self, batch, output):
        checked = []
        for i, (boxes, components) in zip(batch, output):
            want = sorted((c.bbox for c in components), key=lambda b: (b.r0, b.c0, b.r1, b.c1))
            checked.append((boxes == want and boxes == self.expected_boxes[i], boxes))
        return checked


WORKLOADS = {w.name: w for w in (EvalRestore320(), ProposeRaw320(), Oracle64())}


def cycle_model_pass(w: Workload, corpus: Corpus) -> list[tuple[str, dict] | None]:
    """Run ``cram-sim propose`` with the workload's pipeline once over the corpus."""
    out = os.path.join(corpus.dir, "out")
    code = run_cli(["propose", *corpus.paths, "--out", out, *w.cli_args])
    if code != 0:
        return [None] * len(corpus.paths)
    outputs = read_propose_outputs(out, corpus.stems)
    return [outputs.get(s) for s in corpus.stems]


# ----------------------------------------------------------------- a run


def environment(w: Workload, args, frames: int) -> dict:
    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "workers": w.workers,
        "CRAM_SIM_THREADS": os.environ.get("CRAM_SIM_THREADS"), "frames": frames,
        "batch": w.batch, "pool": w.pool, "platform": platform.platform(),
    }


def pick(w: Workload, seed: int, smoke: bool) -> list[int]:
    n = w.smoke_frames if smoke else w.frames
    return [int(k) for k in np.random.default_rng(seed).choice(w.pool, size=n, replace=False)]


def set_up(w: Workload, pool_ids: list[int], reference: dict,
           repeats: int) -> tuple[list[float], list[float]]:
    """Build the corpus and warm up ``repeats`` times; the last build is kept.

    Returns each set-up's seconds, and the host-speed scale measured just
    before it.
    """
    times, scales = [], []
    for _ in range(repeats):
        scales.append(hostspeed.scale(hostspeed.burst()))
        t0 = time.perf_counter()
        corpus = w.build(os.path.join(WORK, w.name), pool_ids)
        w.prepare(corpus, reference)
        w.warm_up()
        times.append(time.perf_counter() - t0)
    return times, scales


class Loop:
    """Closed loop, one client: call, check, repeat until time is up."""

    def __init__(self, w: Workload, tracer=None):
        self.w = w
        self.tracer = tracer
        n = len(w.corpus.stems)
        self.batches = [list(range(i, i + w.batch)) for i in range(0, n, w.batch)]
        self.call_s: list[float] = []
        self.scale: list[float] = []  # host-speed scale of each call
        self.attempted = 0
        self.failed = 0
        self.first_results: dict[int, object] = {}  # frame -> its output on the first pass
        self.first_outputs: list = []  # call outputs of the first pass

    def run(self, seconds: float, one_pass: bool) -> None:
        w, tracer = self.w, self.tracer
        start = time.perf_counter()
        next_probe = start
        i = 0
        while True:
            if time.perf_counter() >= next_probe:
                scale = hostspeed.scale(hostspeed.burst())
                next_probe = time.perf_counter() + hostspeed.EVERY_S
            batch = self.batches[i % len(self.batches)]
            if tracer is not None:
                tracer.request, tracer.enabled = i, True
            t0 = time.perf_counter()
            output = w.call(batch)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
            self.call_s.append(t1 - t0)
            self.scale.append(scale)
            checked = w.check(batch, output)
            self.attempted += len(batch)
            self.failed += sum(not (ok and w.frame_ok[j]) for j, (ok, _) in zip(batch, checked))
            if i < len(self.batches):
                self.first_outputs.append(output)
                self.first_results.update((j, r) for j, (_, r) in zip(batch, checked))
            i += 1
            done_pass = i >= len(self.batches)
            if one_pass and done_pass:
                break
            if (not one_pass and done_pass and i >= MIN_CALLS
                    and time.perf_counter() - start >= seconds):
                break

    def scaled_s(self) -> list[float]:
        """Call times scaled to the reference host speed (see ``hostspeed``)."""
        return [t * k for t, k in zip(self.call_s, self.scale)]

    def windows(self, times: list[float]) -> list[list[float]]:
        """``times`` cut into ``WINDOWS`` consecutive slices of equal length.

        The host's speed drifts over seconds; a median over slices is not
        moved by a slow or fast stretch that covers a minority of the run.
        """
        chunk = max(1, len(times) // WINDOWS)
        return [times[k:k + chunk] for k in range(0, len(times) - chunk + 1, chunk)]

    def host_times(self, times: list[float]) -> dict[str, float]:
        """``frames_per_s`` and call latency in ms from per-call seconds."""
        ms = [t * 1e3 for t in times]
        parts = self.windows(ms)
        return {
            "frames_per_s": statistics.median(1e3 * self.w.batch * len(p) / sum(p) for p in parts),
            "call_ms_p50": statistics.median(statistics.median(p) for p in parts),
            "call_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        }


def f1_at_50(w: Workload, loop: Loop) -> float:
    """Micro F1 at IoU 0.5 against the synthetic ground truth, over the first pass."""
    tp = fp = fn = 0
    if isinstance(w, EvalRestore320):
        for reports in loop.first_outputs:
            r = reports[THRESHOLDS.index(0.5)]
            tp, fp, fn = tp + r.tp, fp + r.fp, fn + r.fn
    else:
        for j, result in loop.first_results.items():
            if result is None:
                continue
            m = oracle.match_boxes(w.boxes(result), w.corpus.scenes[j].gt, 0.5)
            tp, fp, fn = tp + m.tp, fp + m.fp, fn + m.fn
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def run_workload(w: Workload, args) -> dict:

    os.environ["CRAM_SIM_THREADS"] = str(CLI_THREADS)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[w.name]
    pool_ids = pick(w, args.seed, args.smoke)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    # set-up, several times for a steady median; the traced run traces one
    if tracer is None:
        setup_times, setup_scales = set_up(w, pool_ids, reference,
                                           1 if args.smoke else SETUP_REPEATS)
    else:
        with tracer:
            tracer.phase, tracer.enabled = "setup", True
            set_up(w, pool_ids, reference, 1)
            tracer.enabled, tracer.phase = False, "run"

    # the cycle model's view of every frame, checked against the seed commit
    n = len(pool_ids)
    rows = [None] * n
    w.frame_ok = [True] * n
    if not w.costs_from_calls:
        rows = cycle_model_pass(w, w.corpus)
        w.frame_ok = [r is not None and frame_digest(*r) == reference["digests"][k]
                      for r, k in zip(rows, pool_ids)]
        w.expected_boxes = [projection.boxes_from_json(r[0]) if r else None for r in rows]

    if tracer is None:
        loop = Loop(w)
        loop.run(args.seconds, args.smoke)
        if w.costs_from_calls:
            rows = [loop.first_results.get(j) for j in range(n)]
        metrics = end_to_end(w, loop, rows, [t * k for t, k in zip(setup_times, setup_scales)])
        unscaled = {**loop.host_times(loop.call_s), "setup_s": statistics.median(setup_times)}
        attempted, failed = loop.attempted, loop.failed
    else:
        from tracer import layer_metrics
        plain = Loop(w)
        plain.run(args.seconds / 2, args.smoke)
        traced = Loop(w, tracer)
        with tracer:
            traced.run(args.seconds / 2, args.smoke)
        if w.costs_from_calls:
            rows = [traced.first_results.get(j) for j in range(n)]
        metrics = layer_metrics(tracer, traced.attempted, 1)
        metrics["trace_overhead_frac"] = (statistics.median(traced.call_s)
                                          / statistics.median(plain.call_s) - 1.0)
        metrics["diffusion.ops_per_frame"] = modeled_mean(rows, "diffusion_ops")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        unscaled = {}
    return {"metrics": metrics, "unscaled": unscaled, "attempted": attempted,
            "failed": failed, "tracer": tracer, "env": environment(w, args, n)}


def modeled_mean(rows, *columns: str) -> float:
    """Mean over frames of the summed ``cycles.csv`` columns (modeled cost)."""
    values = [sum(int(r[1][c]) for c in columns) for r in rows if r is not None]
    return sum(values) / len(values) if values else 0.0


def end_to_end(w: Workload, loop: Loop, rows, setup_times: list[float]) -> dict[str, float]:
    """Every end-to-end metric; host times are scaled to the reference host speed."""
    return {
        **loop.host_times(loop.scaled_s()),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": (loop.attempted - loop.failed) / loop.attempted,
        "f1_iou50": f1_at_50(w, loop),
        "imc_cycles_per_frame": modeled_mean(rows, "imc_cycles"),
        "total_cycles_per_frame": modeled_mean(rows, "total_cycles"),
        "projection_ops_per_frame": modeled_mean(rows, "projection_ops"),
        "modeled_ops_per_frame": modeled_mean(rows, "diffusion_ops", "projection_ops"),
    }


# ------------------------------------------------------------------ main


def units_for(trace: bool) -> dict[str, str]:
    if not trace:
        return END_TO_END
    from tracer import LAYER_UNITS
    return LAYER_UNITS


def one(args) -> int:
    w = WORKLOADS[args.workload]
    result = run_workload(w, args)
    units = units_for(args.trace)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{int(args.trace)}{'-smoke' if args.smoke else ''}"
    record = {"env": result["env"], "attempted": result["attempted"],
              "failed": result["failed"], "metrics": result["metrics"],
              "unscaled_host_times": result["unscaled"]}
    if result["tracer"] is not None:
        from tracer import LAYER_MOVES
        spans = os.path.join(RESULTS, tag + ".spans.jsonl")
        result["tracer"].write(spans)
        record.update(spans=spans, missing_layers=result["tracer"].missing,
                      layer_moves=LAYER_MOVES)
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(os.path.join(WORK, w.name), ignore_errors=True)
    print("env " + json.dumps(result["env"]))
    if result["unscaled"]:
        print("unscaled " + json.dumps(result["unscaled"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


def every(args) -> int:
    """Run each workload in its own process and print one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace))] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for k in ("attempted", "failed"):
            combined[k] += result[k]
        combined["correct"] &= result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:42s} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus and one pass per workload")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return every(args)
        import_cramsim()
        return one(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
