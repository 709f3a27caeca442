"""The benchmark's span tracer still finds and reads what it measures.

perfbench/tracer.py hooks cramsim functions by name and reads counts off
their results. A refactor that renames a hooked function or changes what
the hook reads would only show in the benchmark itself; this runs the
tracer around a small in-process `cram-sim propose`, with and without
restoration, instead.
"""

from pathlib import Path

import pytest

from cramsim import cli
from cramsim.grid import frame_to_bytes, load_frame
from cramsim.projection import RpConfig, region_propose
from cramsim.synth import SynthConfig, generate_corpus
from cramsim.timing import REGION_PROJECTION

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def paths(tmp_path, monkeypatch) -> list[str]:
    """Two small noisy PBM frames; the tracer importable; one worker thread."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("CRAM_SIM_THREADS", "1")
    cfg = SynthConfig(width=64, height=64, side_min=8, side_max=16, noise_density=0.01, seed=3)
    paths = []
    for i, scene in enumerate(generate_corpus(cfg, 2)):
        path = tmp_path / f"f{i}.pbm"
        path.write_bytes(frame_to_bytes(scene.frame))
        paths.append(str(path))
    return paths


def traced_propose(tmp_path, paths, *options):
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        tracer.enabled = True
        assert cli.main(["propose", *paths, *options, "--out", str(tmp_path / "out")]) == 0
    return tracer


def test_tracer_hooks_projection_and_counts_region_projections(tmp_path, paths):
    from tracer import layer_metrics

    tracer = traced_propose(tmp_path, paths)
    hooked = [m for m in tracer.missing
              if m.startswith("cramsim.projection.") or m == "cramsim.timing.trace_cycles"]
    assert hooked == []

    regions = [region_propose(load_frame(p), RpConfig()).trace.counts.get(REGION_PROJECTION, 0)
               for p in paths]
    assert min(regions) > 0
    metrics = layer_metrics(tracer, frames=len(paths), setups=1)
    assert metrics["projection.iss.region_projections"] == sum(regions) / len(regions)


def test_tracer_times_the_restore_layer(tmp_path, paths):
    from tracer import layer_metrics

    tracer = traced_propose(tmp_path, paths, "--propose.restore", "true")
    assert [m for m in tracer.missing if m.startswith("cramsim.diffusion.")] == []
    metrics = layer_metrics(tracer, frames=len(paths), setups=1)
    assert metrics["diffusion.restore_image.ms"] > 0
