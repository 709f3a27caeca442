"""End-to-end command-line behavior: outputs, config plumbing, exit codes."""

import contextlib
import errno
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate
from cramsim.cli import MAX_THREADS, main, worker_count
from cramsim.config import RunConfig, known_keys, load_config, parse_config_text, set_key
from cramsim.diffusion import DiffusionConfig
from cramsim.errors import ConfigError
from cramsim.grid import BinaryFrame, frame_to_bytes, load_frame
from cramsim.oracle import EvalPipeline
from cramsim.projection import RpConfig, boxes_from_json
from cramsim.synth import SynthConfig

README = Path(__file__).resolve().parent.parent / "README.md"

SYNTH_ARGS = [
    "--frame.width", "64", "--frame.height", "64",
    "--synth.frames", "4", "--synth.side_min", "8", "--synth.side_max", "14",
    "--synth.objects_max", "3", "--synth.seed", "99",
]


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert run_cli("synth", "--out", str(out), *SYNTH_ARGS) == 0
    return out


# --- config parsing


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "frame.width = 128\n"
        "diffusion.alpha = 0.1\n"
        "eval.iou_thresholds = 0.25,0.75\n"
        "pipeline.restore = false\n"
        "\n"
    )
    cfg = load_config(str(cfg_file), [("frame.width", "48")])
    assert cfg.frame_width == 48  # override wins over file
    assert cfg.alpha == 0.1
    assert cfg.eval_iou_thresholds == [0.25, 0.75]
    assert cfg.pipeline_restore is False


def test_config_rejects_unknown_key_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("frame.depth = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("frame.width = many\n")
    with pytest.raises(ConfigError):
        parse_config_text("pipeline.restore = maybe\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")


def test_config_file_may_set_a_key_once(tmp_path, capsys):
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("frame.width = 64\n# comment\n frame.width=32\n")
    out = tmp_path / "out"
    assert run_cli("probe", "--config", str(cfg_file), "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"cram-sim: error: {cfg_file}:3: frame.width is already set on line 1"]
    assert not out.exists()
    # a command-line override still replaces the file's value
    cfg_file.write_text("frame.width = 64\n")
    assert load_config(str(cfg_file), [("frame.width", "32")]).frame_width == 32


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/no/such/file.cfg")


def readme_config_table() -> list[tuple[str, str]]:
    """(key, documented default) for every key in README's configuration table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = []
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
        key_cell, default_cell = (cell.strip() for cell in line.split("|")[1:3])
        keys = re.findall(r"`([^`]+)`", key_cell)
        defaults = default_cell.split(", ") if len(keys) > 1 else [default_cell]
        assert len(defaults) == len(keys), line
        rows += [(key, "" if d == "empty" else d) for key, d in zip(keys, defaults)]
    return rows


def test_readme_config_table_and_defaults_match_code():
    rows = readme_config_table()
    assert sorted(key for key, _ in rows) == known_keys()
    for key, default in rows:
        cfg = RunConfig()
        set_key(cfg, key, default)
        assert cfg == RunConfig(), f"README default of {key} is {default!r}"
    cfg = RunConfig()
    assert cfg.diffusion_config() == DiffusionConfig()
    assert cfg.rp_config() == RpConfig()
    assert cfg.synth_config() == SynthConfig()


def test_config_materializes_component_configs():
    cfg = RunConfig()
    assert cfg.diffusion_config().alpha == 0.2
    assert cfg.rp_config().projection.dac_code == 7
    assert cfg.synth_config().width == 320
    pipe = cfg.eval_pipeline()
    assert pipe.restore and pipe.consolidate


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("CRAM_SIM_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("CRAM_SIM_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.delenv("CRAM_SIM_THREADS")
    assert worker_count() >= 1
    monkeypatch.setenv("CRAM_SIM_THREADS", "lots")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("CRAM_SIM_THREADS", "-2")
    with pytest.raises(ConfigError):
        worker_count()
    # an explicit count is bounded, and never clamped to the CPU count
    monkeypatch.setenv("CRAM_SIM_THREADS", str(MAX_THREADS))
    assert worker_count() == MAX_THREADS
    for raw in (str(MAX_THREADS + 1), str(10**30)):
        monkeypatch.setenv("CRAM_SIM_THREADS", raw)
        with pytest.raises(ConfigError, match=rf"in \[0, {MAX_THREADS}\], got {raw}"):
            worker_count()


# --- synth


def test_synth_outputs(corpus):
    pbms = sorted(p.name for p in corpus.glob("*.pbm"))
    gts = sorted(p.name for p in corpus.glob("*.gt.json"))
    assert pbms == [f"frame_{i:05d}.pbm" for i in range(4)]
    assert gts == [f"frame_{i:05d}.gt.json" for i in range(4)]
    f = load_frame(corpus / "frame_00000.pbm")
    assert (f.width, f.height) == (64, 64)
    boxes = boxes_from_json((corpus / "frame_00000.gt.json").read_text())
    assert boxes and all(b.r1 < 64 and b.c1 < 64 for b in boxes)
    # boxes JSON uses the x/y naming
    raw = json.loads((corpus / "frame_00000.gt.json").read_text())
    assert set(raw[0]) == {"x0", "y0", "x1", "y1"}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_outputs_follow_the_umask(tmp_path, monkeypatch, umask, mode):
    monkeypatch.setenv("CRAM_SIM_THREADS", "2")
    old = os.umask(umask)
    try:
        assert run_cli("synth", "--out", str(tmp_path / "corpus"), *SYNTH_ARGS) == 0
        assert run_cli("propose", str(tmp_path / "corpus"), "--out", str(tmp_path / "boxes")) == 0
    finally:
        os.umask(old)
    files = sorted((tmp_path / "corpus").iterdir()) + sorted((tmp_path / "boxes").iterdir())
    assert len(files) == 8 + 5  # a .pbm and a .gt.json per frame; a .boxes.json each, cycles.csv
    assert {f.name: f.stat().st_mode & 0o777 for f in files} == {f.name: mode for f in files}


def test_nested_out_is_created_on_the_first_write(tmp_path, corpus):
    out = tmp_path / "a" / "b" / "c"
    assert run_cli("propose", str(corpus), "--out", str(out)) == 0
    assert len(list(out.iterdir())) == 4 + 1  # a .boxes.json per frame, cycles.csv


def test_write_retries_until_every_byte_is_written(tmp_path, monkeypatch):
    from cramsim import cli

    write, calls = os.write, []

    def one_byte(fd, data):
        calls.append(len(data))
        return write(fd, bytes(data[:1]))

    payload = bytes(range(256)) * 3
    monkeypatch.setattr(os, "write", one_byte)
    cli._write_bytes(str(tmp_path / "f.bin"), payload)
    monkeypatch.undo()
    assert (tmp_path / "f.bin").read_bytes() == payload
    assert calls == list(range(len(payload), 0, -1))
    assert os.listdir(tmp_path) == ["f.bin"]


def test_failed_write_leaves_the_target_and_no_temp_file(tmp_path, corpus, capsys, monkeypatch):
    def no_space(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = tmp_path / "boxes"
    out.mkdir()
    (out / "frame_00000.boxes.json").write_text("old\n")
    monkeypatch.setenv("CRAM_SIM_THREADS", "2")
    monkeypatch.setattr(os, "write", no_space)
    capsys.readouterr()
    code = run_cli("propose", str(corpus), "--out", str(out))
    monkeypatch.undo()
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"cram-sim: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert os.listdir(out) == ["frame_00000.boxes.json"]
    assert (out / "frame_00000.boxes.json").read_text() == "old\n"


# --- restore


def test_restore_outputs_and_blank_flags(tmp_path, corpus):
    # add a frame that restores to blank: two lone specks
    speck = BinaryFrame.zeros(64, 64)
    speck.pixels[10, 10] = 1
    speck.pixels[40, 50] = 1
    (corpus / "frame_99999.pbm").write_bytes(frame_to_bytes(speck))
    (corpus / "frame_99999.gt.json").write_text("[]\n")

    out = tmp_path / "restored"
    assert run_cli("restore", str(corpus), "--out", str(out), "--emit-analog") == 0
    restored = sorted(p.name for p in out.glob("*.restored.pbm"))
    assert len(restored) == 5
    csv_lines = (out / "blank.csv").read_text().splitlines()
    assert csv_lines[0] == "frame,blank"
    flags = dict(line.split(",") for line in csv_lines[1:])
    assert flags["frame_99999"] == "true"
    assert flags["frame_00000"] == "false"
    analog = (out / "frame_00000.analog.pgm").read_bytes()
    header = b"P5\n# ring 1\n66 66\n255\n"
    assert analog[:len(header)] == header
    assert len(analog) == len(header) + 66 * 66


def test_restore_emit_analog_runs_pulse_train_once(tmp_path, corpus, monkeypatch):
    """--emit-analog thresholds the emitted state instead of diffusing the frame again."""
    import threading

    from cramsim import diffusion
    from cramsim.grid import analog_to_bytes
    from diffusion_reference import apply_pulses as reference_pulses

    runs = []
    lock = threading.Lock()
    kernel = diffusion._Stencil.pulse_train

    def counted(self, frame, cfg, analog):
        with lock:
            runs.append(cfg.pulses * cfg.substeps_per_pulse)
        return kernel(self, frame, cfg, analog)

    monkeypatch.setattr(diffusion._Stencil, "pulse_train", counted)
    plain, analog = tmp_path / "plain", tmp_path / "analog"
    assert run_cli("restore", str(corpus), "--out", str(plain)) == 0
    assert runs == [8] * 4
    runs.clear()
    assert run_cli("restore", str(corpus), "--out", str(analog), "--emit-analog") == 0
    assert runs == [8] * 4
    for path in sorted(plain.iterdir()):
        assert (analog / path.name).read_bytes() == path.read_bytes()
    for i in range(4):
        want = reference_pulses(load_frame(corpus / f"frame_{i:05d}.pbm"), diffusion.DiffusionConfig())
        assert (analog / f"frame_{i:05d}.analog.pgm").read_bytes() == analog_to_bytes(want)


def test_restore_single_file_input(tmp_path, corpus):
    out = tmp_path / "r1"
    assert run_cli("restore", str(corpus / "frame_00001.pbm"), "--out", str(out)) == 0
    assert (out / "frame_00001.restored.pbm").exists()
    assert (out / "blank.csv").read_text().splitlines()[1].startswith("frame_00001,")


# --- propose


def test_propose_outputs(tmp_path, corpus):
    out = tmp_path / "boxes"
    assert run_cli("propose", str(corpus), "--out", str(out)) == 0
    lines = (out / "cycles.csv").read_text().splitlines()
    assert lines[0] == "frame_id,n_objects,imc_cycles,total_cycles,diffusion_ops,projection_ops"
    assert len(lines) == 5
    for line in lines[1:]:
        frame_id, n_objects, imc, total, dops, pops = line.split(",")
        boxes = boxes_from_json((out / f"{frame_id}.boxes.json").read_text())
        assert len(boxes) == int(n_objects)
        assert int(total) > int(imc)
        assert int(dops) == 0  # propose does not restore by default
        assert int(pops) >= 64 * 64  # at least the full-axis read


def test_propose_with_restore_counts_diffusion(tmp_path, corpus):
    out = tmp_path / "boxes_r"
    assert run_cli(
        "propose", str(corpus), "--out", str(out), "--propose.restore", "true",
    ) == 0
    line = (out / "cycles.csv").read_text().splitlines()[1]
    dops = int(line.split(",")[4])
    assert dops == 1 * 8 * 66 * 66 * 5


def test_propose_cycles_on_separated_frame(tmp_path):
    # diagonal-2 synthetic: cycles must hit the 8N+8 / 10N+12 floor
    f = BinaryFrame.zeros(32, 32)
    f.pixels[0:8, 0:8] = 1
    f.pixels[16:24, 16:24] = 1
    src = tmp_path / "diag.pbm"
    src.write_bytes(frame_to_bytes(f))
    out = tmp_path / "d"
    assert run_cli("propose", str(src), "--out", str(out)) == 0
    row = (out / "cycles.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "diag"
    assert (int(row[1]), int(row[2]), int(row[3])) == (2, 24, 32)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_propose_runs_each_frame_once_through_one_pipeline(tmp_path, corpus, monkeypatch,
                                                          threads):
    calls = []
    propose = EvalPipeline.propose

    def counted(self, frame):
        calls.append((self, frame))
        return propose(self, frame)

    monkeypatch.setattr(EvalPipeline, "propose", counted)
    monkeypatch.setenv("CRAM_SIM_THREADS", threads)
    out = tmp_path / "boxes"
    assert run_cli("propose", str(corpus), "--out", str(out), "--propose.restore", "true") == 0
    paths = sorted(corpus.glob("*.pbm"))
    assert len(calls) == len(paths) == 4
    assert len({id(pipe) for pipe, _ in calls}) == 1
    pipe = calls[0][0]
    assert sorted(f.pixels.tobytes() for _, f in calls) == sorted(
        load_frame(str(p)).pixels.tobytes() for p in paths)
    rows = (out / "cycles.csv").read_text().splitlines()[1:]
    for row, path in zip(rows, paths, strict=True):
        run = propose(pipe, load_frame(str(path)))
        assert row == ",".join(map(str, (path.stem, len(run.boxes), *run.cost)))


# The README session's corpus, and its cycles.csv without and with restoration.
DEMO_CFG = """\
frame.width = 64
frame.height = 64
synth.frames = 3
synth.objects_max = 3
synth.side_min = 8
synth.side_max = 16
synth.noise_density = 0.01
synth.seed = 7
"""
CYCLES_HEADER = "frame_id,n_objects,imc_cycles,total_cycles,diffusion_ops,projection_ops"
DEMO_CYCLES = {
    "false": ["frame_00000,1,696,776,0,6987",
              "frame_00001,3,832,938,0,8159",
              "frame_00002,3,784,876,0,7952"],
    "true": ["frame_00000,1,16,22,174240,5056",
             "frame_00001,3,32,42,174240,6016",
             "frame_00002,2,24,32,174240,5760"],
}


@pytest.mark.parametrize("restore", ["false", "true"])
def test_readme_session_cycles_golden(tmp_path, restore):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(DEMO_CFG)
    corpus, out = tmp_path / "corpus", tmp_path / "boxes"
    assert run_cli("synth", "--config", str(cfg), "--out", str(corpus)) == 0
    assert run_cli("propose", str(corpus), "--out", str(out),
                   "--propose.restore", restore) == 0
    want = "\n".join([CYCLES_HEADER, *DEMO_CYCLES[restore]]) + "\n"
    assert (out / "cycles.csv").read_text() == want


# --- eval


def test_eval_report(tmp_path, corpus):
    out = tmp_path / "scores"
    assert run_cli("eval", str(corpus), "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "iou,tp,fp,fn,precision,recall,f1,setting_id,weighted_f1"
    assert len(lines) == 4  # default three thresholds
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[7] == "default"
        assert 0.0 <= float(parts[6]) <= 1.0


def test_eval_sweep_rows(tmp_path, corpus):
    out = tmp_path / "sweep"
    assert run_cli(
        "eval", str(corpus), "--out", str(out),
        "--eval.sweep_amplitudes", "0.5,1.0",
        "--eval.sweep_substeps", "4,8",
        "--eval.iou_thresholds", "0.5",
    ) == 0
    lines = (out / "report.csv").read_text().splitlines()
    ids = [line.split(",")[7] for line in lines[1:]]
    assert ids == ["amp0.5_sub4", "amp0.5_sub8", "amp1_sub4", "amp1_sub8"]


def test_eval_missing_gt_fails(tmp_path, corpus):
    os.remove(corpus / "frame_00002.gt.json")
    out = tmp_path / "scores"
    assert run_cli("eval", str(corpus), "--out", str(out)) == 1


@pytest.mark.parametrize("payload", [
    b'[{"x0": 1}]',
    b"{not json",
    b'[{"x0": 0, "y0": 0, "x1": 900, "y1": 3}]',
    b'[{"x0": 0, "y0": 64, "x1": 3, "y1": 64}]',
    b'[{"x0": 5, "y0": 0, "x1": 2, "y1": 3}]',
    b'[{"x0": 0.5, "y0": 0, "x1": 2, "y1": 3}]',
    b'{"x0": 0, "y0": 0, "x1": 2, "y1": 3}',
    b"[1]",
    b"\xff\xfe[]",
], ids=["missing_key", "bad_json", "x_outside", "y_outside", "inverted", "float",
        "not_array", "not_object", "not_utf8"])
def test_eval_malformed_gt_fails(tmp_path, corpus, capsys, payload):
    gt = corpus / "frame_00001.gt.json"
    gt.write_bytes(payload)
    assert run_cli("eval", str(corpus), "--out", str(tmp_path / "scores")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("cram-sim: error: ") and str(gt) in err[0]


@pytest.mark.parametrize("max_iters", ["100000000000000", "10000000000000000000"])
def test_propose_with_a_huge_iteration_cap(tmp_path, corpus, max_iters):
    assert run_cli("propose", str(corpus), "--out", str(tmp_path / "huge"),
                   "--rp.max_iters", max_iters) == 0
    assert run_cli("propose", str(corpus), "--out", str(tmp_path / "large"),
                   "--rp.max_iters", "1000000") == 0
    assert _tree(tmp_path / "huge") == _tree(tmp_path / "large")


# --- probe


def test_probe_csv(tmp_path):
    out = tmp_path / "probe"
    assert run_cli(
        "probe", "--out", str(out), "--frame.width", "64", "--frame.height", "64",
    ) == 0
    assert (out / "probe.csv").read_text() == "location,steps\ncenter,9\ncorner,11\n"


# --- exit codes and override plumbing


def test_exit_codes(tmp_path, monkeypatch):
    assert run_cli("probe", "--out", str(tmp_path), "--frame.bogus", "1") == 2
    assert run_cli("probe", "--out", str(tmp_path), "--diffusion.alpha", "0.9") == 2
    assert run_cli("probe", "--out", str(tmp_path), "--diffusion.amplitude", "0") == 3
    assert run_cli("restore", "/definitely/missing.pbm", "--out", str(tmp_path)) == 1
    bad = tmp_path / "bad.pbm"
    bad.write_bytes(b"P4\n8 8\nx")
    assert run_cli("propose", str(bad), "--out", str(tmp_path)) == 1
    good = tmp_path / "good.pbm"
    good.write_bytes(frame_to_bytes(BinaryFrame.zeros(8, 8)))
    assert run_cli("restore", str(good), "--out", str(tmp_path), "--blank.max_ones", "-5") == 2
    not_utf8 = tmp_path / "bad.cfg"
    not_utf8.write_bytes(b"\xff\xfe = 1\n")
    assert run_cli("probe", "--out", str(tmp_path), "--config", str(not_utf8)) == 2
    assert run_cli("restore", str(good), "--out", str(tmp_path),
                   "--diffusion.amplitude", "nan") == 2
    for lcc in ("nan", "inf"):
        assert run_cli("propose", str(good), "--out", str(tmp_path),
                       "--projection.line_charge_constant", lcc) == 2
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "f.pbm").write_bytes(frame_to_bytes(BinaryFrame.zeros(8, 8)))
    (corpus / "f.gt.json").write_text("[]\n")
    assert run_cli("eval", str(corpus), "--out", str(tmp_path), "--eval.sweep_amplitudes", "nan",
                   "--eval.sweep_substeps", "4") == 2
    assert run_cli("eval", str(corpus), "--out", str(tmp_path), "--eval.iou_thresholds", "") == 2
    assert run_cli("eval", str(corpus), "--out", str(tmp_path), "--eval.iou_thresholds", "5") == 2
    for threads in ("lots", "-1", str(MAX_THREADS + 1)):
        monkeypatch.setenv("CRAM_SIM_THREADS", threads)
        assert run_cli("propose", str(good), "--out", str(tmp_path)) == 2
    monkeypatch.delenv("CRAM_SIM_THREADS")
    big = tmp_path / "big"
    assert run_cli("synth", "--frame.width", "4097", "--frame.height", "64",
                   "--synth.frames", "2", "--out", str(big)) == 2
    assert not big.exists()


@pytest.mark.parametrize("command, restore_key, output", [
    ("propose", "propose.restore", "cycles.csv"), ("eval", "pipeline.restore", "report.csv")])
def test_knobs_of_a_stage_that_does_not_run_cannot_fail_it(tmp_path, corpus, command,
                                                           restore_key, output):
    bad_diffusion = ["--diffusion.alpha", "0.9", "--frame.ring", "100000"]
    argv = [command, str(corpus), f"--{restore_key}", "false"]
    assert run_cli(*argv, "--out", str(tmp_path / "plain")) == 0
    assert run_cli(*argv, *bad_diffusion, "--out", str(tmp_path / "unused")) == 0
    assert _tree(tmp_path / "unused") == _tree(tmp_path / "plain")
    assert (tmp_path / "plain" / output).is_file()
    restoring = [command, str(corpus), f"--{restore_key}", "true", *bad_diffusion]
    assert run_cli(*restoring, "--out", str(tmp_path / "restored")) == 2
    assert not (tmp_path / "restored").exists()


@pytest.mark.parametrize("command,code", [
    (["synth", "--synth.frames", "0"], 2),
    (["eval", "CORPUS", "--eval.iou_thresholds", "5"], 2),
    (["propose", "missing.pbm"], 1),
    (["synth", "--synth.seed", "-1"], 2),
    (["restore", "CORPUS", "--blank.max_ones", "-1"], 2),
    (["restore", "CORPUS", "--frame.ring", "100000"], 2),
    (["eval", "CORPUS", "--frame.ring", "100000"], 2),
    (["propose", "CORPUS", "--propose.restore", "true", "--frame.ring", "100000"], 2),
    (["probe", "--frame.ring", "100000"], 2),
    (["probe", "--frame.width", "100000", "--frame.height", "100000"], 2),
    (["eval", "CORPUS", "--eval.sweep_amplitudes", "0.5"], 2),
    (["eval", "CORPUS", "--eval.sweep_substeps", "4"], 2),
    # amplitude 2 is past the stability limit, and comes after two good settings
    (["eval", "CORPUS", "--eval.sweep_amplitudes", "1,2", "--eval.sweep_substeps", "4,8"], 2),
    # outputs are named by stem: two inputs with one stem, or one file twice
    (["propose", "CORPUS", "CORPUS2"], 1),
    (["restore", "CORPUS", "CORPUS2"], 1),
    (["propose", "CORPUS", "CORPUS"], 1),
    # usage errors: no input, a stray argument, an abbreviated key, a key without a value
    (["propose"], 2),
    (["probe", "extra"], 2),
    (["probe", "--frame.widt", "64"], 2),
    (["probe", "--frame.width"], 2),
    # a newline in the message is escaped, not printed
    (["propose", "missing\nframe.pbm"], 1),
    # 2**64 + 1 would wrap to 1 in the compiled restore's C long
    (["restore", "CORPUS", "--diffusion.substeps_per_pulse", str(2**64 + 1)], 2),
    (["restore", "CORPUS", "--diffusion.pulses", str(2**64 + 1)], 2),
    (["propose", "CORPUS", "--propose.restore", "true",
      "--diffusion.substeps_per_pulse", str(2**64 + 1)], 2),
    (["eval", "CORPUS", "--eval.sweep_amplitudes", "1", "--eval.sweep_substeps", str(2**31)], 2),
    # more objects than a frame has pixels
    (["synth", "--synth.objects_max", str(10**20)], 2),
    # a corpus past five-digit frame numbers; 2**63 overflowed numpy's seed spawning
    (["synth", "--synth.frames", "100001"], 2),
    (["synth", "--synth.frames", str(2**63)], 2),
])
def test_failed_command_leaves_no_out_directory(tmp_path, capsys, monkeypatch, command, code):
    from cramsim import cli, oracle

    def no_work(*args, **kwargs):
        raise AssertionError("ran a frame before failing its checks")

    # a command that fails its checks runs no frame
    monkeypatch.setattr(cli, "_map_frames", no_work)
    monkeypatch.setattr(oracle.EvalPipeline, "propose", no_work)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "f.pbm").write_bytes(frame_to_bytes(BinaryFrame.zeros(8, 8)))
    (corpus / "f.gt.json").write_text("[]\n")
    corpus2 = tmp_path / "corpus2"
    corpus2.mkdir()
    (corpus2 / "f.pbm").write_bytes(frame_to_bytes(BinaryFrame.zeros(6, 6)))
    placeholders = {"CORPUS": str(corpus), "CORPUS2": str(corpus2)}
    argv = [placeholders.get(arg, arg) for arg in command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cram-sim: error: ")
    assert not out.exists()



def test_inputs_after_options_and_leftover_options(tmp_path, capsys):
    """One parser pass: inputs after an option join the first ones, and after a "--" so does
    a name that starts with "-"; a leftover option, or any leftover on a command without
    inputs, is a usage error that names the leftovers, as a second pass would."""
    frames = {}
    for name in ("a", "b", "-c"):
        frames[name] = tmp_path / f"{name}.pbm"
        frames[name].write_bytes(frame_to_bytes(BinaryFrame.zeros(8, 8)))
    out = tmp_path / "x"
    a, b, c = (str(frames[name]) for name in ("a", "b", "-c"))
    assert run_cli("propose", a, "--out", str(out), b) == 0
    assert sorted(p.name for p in out.iterdir()) == ["a.boxes.json", "b.boxes.json", "cycles.csv"]
    assert run_cli("propose", a, "--out", str(tmp_path / "y"), "--", c) == 0
    assert sorted(p.name for p in (tmp_path / "y").iterdir()) == [
        "-c.boxes.json", "a.boxes.json", "cycles.csv"]
    capsys.readouterr()
    for argv, leftovers in (
            (["propose", a, "--out", str(tmp_path / "z"), b, "--bogus"], "--bogus"),
            (["propose", a, "--bogus", "--out", str(tmp_path / "z"), b], "--bogus " + b),
            (["probe", "extra", "--out", str(tmp_path / "z")], "extra"),
            (["eval", str(tmp_path), "more", "--out", str(tmp_path / "z")], "more")):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"cram-sim: error: unrecognized arguments: {leftovers}\n"
        assert not (tmp_path / "z").exists()

def test_propose_skips_directory_named_pbm(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "a.pbm").write_bytes(frame_to_bytes(BinaryFrame.zeros(8, 8)))
    (frames / "d.pbm").mkdir()
    out = tmp_path / "out"
    assert run_cli("propose", str(frames), "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == ["a.boxes.json", "cycles.csv"]


@pytest.mark.parametrize("case", ["only_pbm_is_directory", "out_is_a_file",
                                  "eval_out_is_a_file", "synth_out_is_a_file"])
def test_unusable_paths_fail_with_one_error_line(tmp_path, capsys, monkeypatch, case):
    from cramsim import cli, synth

    frames = tmp_path / "frames"
    frames.mkdir()
    out = tmp_path / "out"
    argv = {"eval_out_is_a_file": ["eval", str(frames)],
            "synth_out_is_a_file": ["synth"]}.get(case, ["propose", str(frames)])
    if case == "only_pbm_is_directory":
        (frames / "d.pbm").mkdir()
    else:
        (frames / "a.pbm").write_bytes(frame_to_bytes(BinaryFrame.zeros(8, 8)))
        (frames / "a.gt.json").write_text("[]\n")
        out.write_text("not a directory\n")

        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking --out")

        # an --out that is a regular file fails before any frame is made or run
        monkeypatch.setattr(cli, "_map_frames", no_work)
        monkeypatch.setattr(cli, "evaluate_sweep", no_work)
        monkeypatch.setattr(synth, "generate_corpus", no_work)
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cram-sim: error: ")


@pytest.mark.parametrize("command", [["synth"], ["restore", "CORPUS"], ["propose", "CORPUS"],
                                     ["eval", "CORPUS"], ["probe"]])
def test_empty_out_is_a_usage_error(tmp_path, corpus, capsys, monkeypatch, command):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # an empty --out must not mean the current directory
    capsys.readouterr()
    argv = [str(corpus) if arg == "CORPUS" else arg for arg in command]
    assert run_cli(*argv, "--out", "") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["cram-sim: error: argument --out: expected a directory, got ''"]
    assert not any(work.iterdir())


def test_override_equals_form(tmp_path):
    out = tmp_path / "p"
    assert run_cli("probe", "--out", str(out), "--frame.width=64",
                   "--frame.height=64") == 0
    assert "center,9" in (out / "probe.csv").read_text()


def test_override_missing_value(tmp_path):
    assert run_cli("probe", "--out", str(tmp_path), "--frame.width") == 2


@pytest.mark.parametrize("command,override", [
    ("eval", ["--pipeline.restore", "false"]),
    ("restore", ["--frame.ring", "2"]),
    ("propose", ["--propose.restore", "true"]),
])
def test_override_before_positional_is_the_same_run(tmp_path, corpus, command, override):
    inputs = [str(corpus)]
    if command != "eval":  # restore and propose take more inputs, split here by the override
        second = tmp_path / "second"
        second.mkdir()
        for frame in sorted(corpus.glob("*.pbm"))[:2]:
            (second / f"second_{frame.name}").write_bytes(frame.read_bytes())
        inputs.append(str(second))
    orders = {"before": [*override, *inputs], "after": [*inputs, *override],
              "between": [inputs[0], *override, *inputs[1:]]}
    trees = []
    for name, argv in orders.items():
        assert run_cli(command, *argv, "--out", str(tmp_path / name)) == 0
        trees.append(_tree(tmp_path / name))
    assert trees[0] and all(tree == trees[0] for tree in trees)


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        corpus = tmp_path / f"corpus_{tag}"
        run_cli("synth", "--out", str(corpus), *SYNTH_ARGS,
                "--synth.noise_density", "0.01")
        scores = tmp_path / f"scores_{tag}"
        run_cli("eval", str(corpus), "--out", str(scores))
        outs.append((corpus, scores))
    (ca, sa), (cb, sb) = outs
    for name in sorted(p.name for p in ca.iterdir()):
        assert (ca / name).read_bytes() == (cb / name).read_bytes()
    assert (sa / "report.csv").read_bytes() == (sb / "report.csv").read_bytes()


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_outputs_do_not_depend_on_thread_count(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    assert run_cli("synth", "--out", str(corpus), *SYNTH_ARGS, "--synth.frames", "6",
                   "--synth.noise_density", "0.01") == 0
    trees = []
    for threads in ("1", "3"):
        monkeypatch.setenv("CRAM_SIM_THREADS", threads)
        out = tmp_path / f"threads_{threads}"
        assert run_cli("restore", str(corpus), "--out", str(out / "restored"),
                       "--emit-analog") == 0
        assert run_cli("propose", str(corpus), "--out", str(out / "boxes")) == 0
        assert run_cli("eval", str(corpus), "--out", str(out / "report")) == 0
        trees.append(_tree(out))
    assert len(trees[0]) == (6 * 2 + 1) + (6 + 1) + 1  # restore, propose, eval
    assert trees[0] == trees[1]


def test_propose_reuses_one_pool_per_worker_count(tmp_path, corpus, monkeypatch):
    start = threading.active_count()
    for threads in ("2", "3"):
        monkeypatch.setenv("CRAM_SIM_THREADS", threads)
        for _ in range(5):
            assert run_cli("propose", str(corpus), "--out", str(tmp_path / "boxes")) == 0
    # at most one pool of 2 and one of 3 threads, not one pool per call
    assert threading.active_count() - start <= 5


def test_console_script_help():
    exe = shutil.which("cram-sim")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "probe" in proc.stdout


def test_help_exits_zero_in_process(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: cram-sim")
    assert all(f"  {name} " in out for name in ("synth", "restore", "propose", "eval", "keys"))


@pytest.mark.parametrize("command", ["synth", "restore", "propose", "eval", "probe", "keys"])
def test_command_help_exits_zero_in_process(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cram-sim {command} [-h]")


def test_keys_subcommand(capsys):
    assert run_cli("keys") == 0
    out = capsys.readouterr().out
    assert "diffusion.alpha" in out and "synth.seed" in out
    assert out.splitlines() == known_keys()
    assert run_cli("keys", "extra") == 2


# --- corrupt inputs


def _fuzz_frame() -> bytes:
    frame = BinaryFrame.zeros(8, 8)
    frame.pixels[2:5, 2:5] = 1
    return frame_to_bytes(frame)


FUZZ_FILES = {
    "corpus/f.pbm": _fuzz_frame(),
    "corpus/f.gt.json": b'[{"x0": 2, "y0": 2, "x1": 4, "y1": 4}]\n',
    "run.cfg": (b"diffusion.substeps_per_pulse = 8\nprojection.dac_code = 7\n"
                b"rp.size_min = 1\npipeline.restore = true\n"),
}


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(["eval", "propose"]),
    edits=st.dictionaries(
        st.sampled_from(sorted(FUZZ_FILES)),
        st.lists(st.tuples(st.integers(0, 255),
                           st.sampled_from(["replace", "insert", "delete", "truncate"]),
                           st.integers(0, 255)), min_size=1, max_size=3),
        min_size=1,
    ),
)
def test_corrupt_inputs_fail_with_one_error_line(command, edits):
    """Mutated frame, ground-truth and config bytes never end in a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus").mkdir()
        for name, data in FUZZ_FILES.items():
            (root / name).write_bytes(mutate(data, edits.get(name, [])))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(root / "corpus"), "--config", str(root / "run.cfg"),
                         "--out", str(root / "out")])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert len(lines) == (code != 0)
    assert all(line.startswith("cram-sim: error: ") for line in lines)


# --- argv fuzz

ARGV_WORDS = [
    "synth", "restore", "propose", "eval", "probe", "keys",  # commands
    "CORPUS", "FRAME", "stray", "8", "false",  # the corpus, a frame in it and stray words
    "--frame.width", "--frame.ring", "--synth.frames", "--pipeline.restore",  # keys
    "--diffusion.alph",  # an abbreviated key
    "--synth.seed=-1", "-0.5,1", "", "--config", "--out",
    "\n", "no\nsuch.pbm",  # a newline, and a path that holds one, in an error message
]


@settings(max_examples=100, deadline=None)
@given(words=st.lists(st.sampled_from(ARGV_WORDS), max_size=6))
def test_any_argv_ends_in_one_error_line_or_none(words):
    """Whatever the argv, main returns a documented code with one error line iff it failed."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus").mkdir()
        for name in ("corpus/f.pbm", "corpus/f.gt.json"):
            (root / name).write_bytes(FUZZ_FILES[name])
        paths = {"CORPUS": str(root / "corpus"), "FRAME": str(root / "corpus" / "f.pbm")}
        argv = [paths.get(w, w) for w in words]
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # a relative --out or stray path stays inside the temporary directory
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(root / "out")])
        except SystemExit as exc:
            pytest.fail(f"main raised SystemExit({exc.code}) instead of returning")
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert len(lines) == (code != 0)
    assert all(line.startswith("cram-sim: error: ") for line in lines)
