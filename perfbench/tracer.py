"""In-memory span tracing around calls into the cramsim modules.

The tracer wraps public functions of each module from outside the
package: every module-level name in ``cramsim.*`` that refers to a traced
function is replaced by a wrapper for the duration of a ``with`` block,
and restored afterwards.  Each call records one span (name, start, end,
parent, thread, request) plus the counts its ``count`` hook reads from
the arguments and the result.  Spans stay in memory and are written out
once, at the end of a run.

A span's parent is the innermost open span on the same thread.  A span
opened on a worker thread with no open span of its own takes the client
thread's innermost open span as parent, so per-frame work on a pool
nests under the call that started the pool.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# Op kind the cycle model charges for one candidate's projection.
REGION_PROJECTION = "region_projection"
# Modeled diffusion ops per cell per substep: 4 neighbour adds + 1 scale.
DIFFUSION_OPS_PER_CELL = 5

# Layer metric -> (unit, end-to-end metric it should move, on which workload).
# Written into every traced result so a reader can check where a saving
# appears.  ``.ms``/``.us`` times are host time; ``diffusion.ops_per_frame``
# is modeled.
LAYER_MOVES = {
    "diffusion.restore_image.ms": ("ms", "frames_per_s", "eval_restore_320"),
    "diffusion.diffuse_substep.us": ("us", "frames_per_s", "eval_restore_320"),
    "diffusion.substeps": ("count", "frames_per_s", "eval_restore_320"),
    "diffusion.host_ns_per_op": ("ns", "frames_per_s", "eval_restore_320"),
    "diffusion.ops_per_frame": ("ops", "modeled_ops_per_frame", "eval_restore_320"),
    "diffusion.self_ms_per_frame": ("ms", "frames_per_s", "eval_restore_320"),
    "projection.iss.ms": ("ms", "frames_per_s, call_ms_p90", "propose_raw_320"),
    "projection.iss.iterations": ("count", "frames_per_s, call_ms_p90", "propose_raw_320"),
    "projection.iss.region_projections": ("count", "frames_per_s, call_ms_p90", "propose_raw_320"),
    "projection.iss.cells_sensed": ("count", "frames_per_s, call_ms_p90", "propose_raw_320"),
    "projection.host_us_per_region_projection": ("us", "frames_per_s, call_ms_p90",
                                                 "propose_raw_320"),
    "projection.rp_update.ms": ("ms", "frames_per_s", "propose_raw_320"),
    "projection.rp_update.boxes_in": ("count", "frames_per_s", "propose_raw_320"),
    "projection.rp_update.boxes_out": ("count", "frames_per_s", "propose_raw_320"),
    "projection.rp_update.keep_ratio": ("fraction", "frames_per_s", "propose_raw_320"),
    "projection.self_ms_per_frame": ("ms", "frames_per_s", "propose_raw_320"),
    "timing.trace_cycles.ms": ("ms", "frames_per_s", "propose_raw_320"),
    "timing.trace_entries": ("count", "frames_per_s", "propose_raw_320"),
    "timing.self_ms_per_frame": ("ms", "frames_per_s", "propose_raw_320"),
    "grid.load_frame.ms": ("ms", "frames_per_s", "propose_raw_320"),
    "grid.embed.us": ("us", "frames_per_s", "eval_restore_320"),
    "grid.frame_to_bytes.ms": ("ms", "setup_s", "all"),
    "grid.self_ms_per_frame": ("ms", "frames_per_s", "propose_raw_320, eval_restore_320"),
    "oracle.ccl.ms": ("ms", "frames_per_s", "oracle_64"),
    "oracle.ccl.components": ("count", "frames_per_s", "oracle_64"),
    "oracle.match_boxes.ms": ("ms", "frames_per_s", "eval_restore_320"),
    "oracle.evaluate.pool_efficiency": ("fraction", "frames_per_s", "eval_restore_320"),
    "oracle.self_ms_per_frame": ("ms", "frames_per_s", "oracle_64, eval_restore_320"),
    "cli.propose.self_ms": ("ms", "frames_per_s", "propose_raw_320"),
    "cli.map_frames.pool_efficiency": ("fraction", "frames_per_s", "propose_raw_320"),
    "cli.self_ms_per_frame": ("ms", "frames_per_s", "propose_raw_320"),
    "synth.generate_corpus.s": ("s", "setup_s", "all"),
    "trace_overhead_frac": ("fraction", "none: the cost of tracing itself", "all"),
}
LAYER_UNITS = {name: unit for name, (unit, _, _) in LAYER_MOVES.items()}


def _iss_counts(args, result) -> dict[str, int]:
    regions = sum(n for kind, n in result.trace.entries if kind == REGION_PROJECTION)
    return {"iterations": result.iterations, "region_projections": regions,
            "cells_sensed": sum(result.projection_cells)}


# (module, attribute path, count hook).  A count hook gets the bound
# arguments and the result and returns counts to add to the span.
TARGETS = (
    ("cramsim.grid", "load_frame", None),
    ("cramsim.grid", "embed", None),
    ("cramsim.grid", "frame_to_bytes", None),
    ("cramsim.diffusion", "restore_image", None),
    ("cramsim.diffusion", "diffuse_substep",
     lambda a, r: {"ops": DIFFUSION_OPS_PER_CELL * a["state"].volts.size}),
    ("cramsim.diffusion", "threshold_restore", None),
    ("cramsim.projection", "region_propose", None),
    ("cramsim.projection", "iss", _iss_counts),
    ("cramsim.projection", "rp_update",
     lambda a, r: {"boxes_in": len(a["new_boxes"]), "boxes_out": len(r)}),
    ("cramsim.timing", "trace_cycles", lambda a, r: {"entries": len(a["trace"].entries)}),
    ("cramsim.timing", "op_count", None),
    ("cramsim.oracle", "ccl", lambda a, r: {"components": len(r)}),
    ("cramsim.oracle", "match_boxes", None),
    ("cramsim.oracle", "evaluate", lambda a, r: {"workers": a["workers"]}),
    ("cramsim.oracle", "EvalPipeline.propose", None),
    ("cramsim.synth", "generate_corpus", None),
    ("cramsim.synth", "generate_scene", None),
    ("cramsim.cli", "main", None),
    ("cramsim.cli", "cmd_propose", None),
    ("cramsim.cli", "_map_frames", lambda a, r: {"workers": a["workers"]}),
)

# The per-item function handed to cli._map_frames gets a span of its own.
MAP_ITEM = "cli.frame"


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    thread: int
    request: int
    phase: str
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Records spans while installed and ``enabled``; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.phase = "run"
        self.request = -1
        self.missing: list[str] = []
        self._stacks: dict[int, list[int]] = {}
        self._client = threading.get_ident()
        self._next_id = 0
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int | None, list[int]]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            client = self._stacks.get(self._client)
            parent = client[-1] if client and tid != self._client else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        return sid, parent, stack

    def _record(self, sid, name, start, end, parent, stack, counts) -> None:
        stack.pop()
        span = Span(sid, name, start, end, parent, threading.get_ident(),
                    self.request, self.phase, counts or {})
        self.spans.append(span)  # list.append is atomic under the GIL

    def _wrap(self, name: str, func, count):
        tracer = self
        sig = inspect.signature(func) if count else None
        is_map = name == "cli._map_frames"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            sid, parent, stack = tracer._open()
            if is_map:
                args = (tracer._wrap(MAP_ITEM, args[0], None),) + tuple(args[1:])
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._record(sid, name, start, time.perf_counter_ns(), parent, stack, None)
                raise
            end = time.perf_counter_ns()
            counts = None
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = count(bound.arguments, result)
            tracer._record(sid, name, start, end, parent, stack, counts)
            return result

        traced.__wrapped__ = func
        return traced

    # -- installing ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "cramsim" or n.startswith("cramsim."))]
        for modname, path, count in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            func = getattr(owner, attr, None) if owner is not None else None
            if func is None:
                self.missing.append(f"{modname}.{path}")
                continue
            name = f"{modname.split('.')[-1]}.{path}"
            wrapper = self._wrap(name, func, count)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:  # every module that imported the name
                for key, value in list(vars(m).items()):
                    if value is func:
                        self._patch(m, key, wrapper)
        return self

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.enabled = False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "thread": s.thread, "request": s.request,
                    "phase": s.phase, **({"counts": s.counts} if s.counts else {}),
                }) + "\n")


# -- per-layer metrics -------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        lo = s.start
        for c0, c1 in sorted(children.get(s.id, ())):
            c0, c1 = max(c0, lo), min(c1, s.end)
            if c1 > c0:
                covered += c1 - c0
                lo = c1
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(tracer: Tracer, frames: int, setups: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Times named ``.ms``/``.us`` are the median inclusive duration of one
    call; counts are means per call; ``self_ms_per_frame`` sums the self
    time of a module's spans over the timed frames.  A layer the workload
    never calls reads 0.
    """
    run = [s for s in tracer.spans if s.phase == "run"]
    setup = [s for s in tracer.spans if s.phase == "setup"]
    by_name: dict[str, list[Span]] = {}
    for s in run:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def median(spans, scale=1e-6, ns=lambda s: s.end - s.start):
        return statistics.median(ns(s) for s in spans) * scale if spans else 0.0

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in calls(name))

    def mean_count(name, key):
        n = len(calls(name))
        return total(name, key) / n if n else 0.0

    def busy_ns(name):
        return sum(s.end - s.start for s in calls(name))

    def ratio(a, b):
        return a / b if b else 0.0

    def pool_efficiency(pool, item):
        ids = {s.id: s for s in calls(pool)}
        busy = sum(s.end - s.start for s in calls(item) if s.parent in ids)
        capacity = sum((p.end - p.start) * p.counts.get("workers", 1) for p in ids.values())
        return ratio(busy, capacity)

    own = self_times(tracer.spans)
    m = {
        "diffusion.restore_image.ms": median(calls("diffusion.restore_image")),
        "diffusion.diffuse_substep.us": median(calls("diffusion.diffuse_substep"), 1e-3),
        "diffusion.substeps": ratio(len(calls("diffusion.diffuse_substep")), frames),
        "diffusion.host_ns_per_op": ratio(busy_ns("diffusion.diffuse_substep"),
                                          total("diffusion.diffuse_substep", "ops")),
        "projection.iss.ms": median(calls("projection.iss")),
        "projection.iss.iterations": mean_count("projection.iss", "iterations"),
        "projection.iss.region_projections": mean_count("projection.iss", "region_projections"),
        "projection.iss.cells_sensed": mean_count("projection.iss", "cells_sensed"),
        "projection.host_us_per_region_projection": ratio(
            busy_ns("projection.iss") * 1e-3, total("projection.iss", "region_projections")),
        "projection.rp_update.ms": median(calls("projection.rp_update")),
        "projection.rp_update.boxes_in": mean_count("projection.rp_update", "boxes_in"),
        "projection.rp_update.boxes_out": mean_count("projection.rp_update", "boxes_out"),
        "projection.rp_update.keep_ratio": ratio(total("projection.rp_update", "boxes_out"),
                                                 total("projection.rp_update", "boxes_in")),
        "timing.trace_cycles.ms": median(calls("timing.trace_cycles")),
        "timing.trace_entries": mean_count("timing.trace_cycles", "entries"),
        "grid.load_frame.ms": median(calls("grid.load_frame")),
        "grid.embed.us": median(calls("grid.embed"), 1e-3),
        "grid.frame_to_bytes.ms": median(
            [s for s in setup if s.name == "grid.frame_to_bytes"]),
        "oracle.ccl.ms": median(calls("oracle.ccl")),
        "oracle.ccl.components": mean_count("oracle.ccl", "components"),
        "oracle.match_boxes.ms": median(calls("oracle.match_boxes")),
        "oracle.evaluate.pool_efficiency": pool_efficiency(
            "oracle.evaluate", "oracle.EvalPipeline.propose"),
        "cli.propose.self_ms": median(calls("cli.cmd_propose"), ns=lambda s: own[s.id]),
        "cli.map_frames.pool_efficiency": pool_efficiency("cli._map_frames", MAP_ITEM),
        "synth.generate_corpus.s": ratio(sum(
            s.end - s.start for s in setup if s.name == "synth.generate_corpus"), setups) * 1e-9,
    }
    for layer in ("grid", "diffusion", "projection", "timing", "oracle", "cli"):
        ns = sum(own[s.id] for s in run if s.name.split(".", 1)[0] == layer)
        m[f"{layer}.self_ms_per_frame"] = ratio(ns * 1e-6, frames)
    return m
