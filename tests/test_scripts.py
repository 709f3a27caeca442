"""The scripts under scripts/ still run against the package's API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cycle_formula_check_runs():
    out = run_script("cycle_formula_check.py", "--n-max", "2", "--random", "2")
    rows = [line.split() for line in out.splitlines()]
    # diagonal objects sit on the 8N+8 / 10N+12 floors
    assert rows[1:4] == [["0", "8", "8", "12", "12", "1"],
                         ["1", "16", "16", "22", "22", "2"],
                         ["2", "24", "24", "32", "32", "2"]]
    assert "off floor" not in out
    assert rows[5][0] == "frame" and len(rows) == 8


def test_robustness_sweep_runs():
    out = run_script("robustness_sweep.py", "--frames", "4", "--workers", "1")
    for row in ("amp0.5_sub4", "amp1_sub16", "spread (max-min):", "restore=False merge=False"):
        assert row in out
