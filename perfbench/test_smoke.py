"""Smoke test of the benchmark: tiny corpus, one pass per workload.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that no frame fails its output check, and that the modeled metrics
are exactly the means of ``cycles.csv`` written by ``cram-sim propose``
and repeat exactly on a second run of a held-out seed.
"""

import csv
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
HELD_OUT_SEED = 424242
MODELED = ("imc_cycles_per_frame", "total_cycles_per_frame",
           "projection_ops_per_frame", "modeled_ops_per_frame")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*argv) -> dict:
    proc = subprocess.run([sys.executable, RUN, "--smoke", *argv], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    result = bench("--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], float)
        if trace == 0:
            assert result["metrics"][f"{workload}.passed_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_modeled_metrics_are_the_cycle_model(workload, tmp_path):
    first = bench("--workload", workload, "--seed", str(HELD_OUT_SEED))
    second = bench("--workload", workload, "--seed", str(HELD_OUT_SEED))
    assert first["failed"] == second["failed"] == 0
    for name in MODELED:
        assert first["metrics"][name] == second["metrics"][name]

    sys.path.insert(0, HERE)
    import run
    run.import_cramsim()
    from cramsim import cli
    w = run.WORKLOADS[workload]
    corpus = w.build(str(tmp_path / "corpus"), run.pick(w, HELD_OUT_SEED, smoke=True))
    out = tmp_path / "out"
    assert cli.main(["propose", *corpus.paths, "--out", str(out), *w.cli_args]) == 0
    with open(out / "cycles.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))

    def mean(*columns):
        return sum(sum(int(r[c]) for c in columns) for r in rows) / len(rows)

    assert first["metrics"]["imc_cycles_per_frame"]["value"] == mean("imc_cycles")
    assert first["metrics"]["total_cycles_per_frame"]["value"] == mean("total_cycles")
    assert first["metrics"]["projection_ops_per_frame"]["value"] == mean("projection_ops")
    assert first["metrics"]["modeled_ops_per_frame"]["value"] == mean(
        "diffusion_ops", "projection_ops")
