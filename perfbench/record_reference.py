#!/usr/bin/env python3
"""Record the expected per-frame outputs of every workload's scene pool.

    python3 perfbench/record_reference.py --label <commit>

For each workload, every pool scene goes through the workload's pipeline
via ``cram-sim propose`` once; the digest of its boxes and ``cycles.csv``
row is stored in ``reference.json``.  For ``eval_restore_320`` the
per-frame (tp, fp, fn) that ``oracle.evaluate`` reports at each IoU
threshold is stored as well.  Re-record only in a change that means to
alter outputs or modeled cost, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def record(w: run.Workload) -> dict:
    oracle = run.oracle
    corpus = w.build(os.path.join(run.WORK, w.name), list(range(w.pool)))
    rows = run.cycle_model_pass(w, corpus)
    if any(r is None for r in rows):
        raise run.BenchError(f"{w.name}: cram-sim propose produced no output for some frames")
    entry = {"digests": [run.frame_digest(*r) for r in rows]}
    if isinstance(w, run.EvalRestore320):
        pipeline = oracle.EvalPipeline(restore=True, consolidate=True)
        entry["counts"] = [
            [[r.tp, r.fp, r.fn] for r in oracle.evaluate(
                [oracle.FrameSample(s.frame, s.gt)], pipeline, run.THRESHOLDS)]
            for s in corpus.scenes
        ]
    shutil.rmtree(corpus.dir)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="commit the outputs come from")
    args = parser.parse_args()
    run.import_cramsim()
    os.environ["CRAM_SIM_THREADS"] = str(run.CLI_THREADS)
    out = {"recorded_from": args.label}
    for name, w in run.WORKLOADS.items():
        out[name] = record(w)
        print(f"{name}: {w.pool} frames", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
