"""The `cram-sim` output trees of one fixed session, pinned by sha256 per file.

The session is criterion 8's 64x64 one, a restore at 3 pulses with a ring
of 2, a restore at 2 pulses of 3 substeps with no ring (an odd count, so
each pulse ends in the other buffer), a restored `propose` at those
settings, restored `propose` runs at 2 substeps and at amplitude 0 (where
the charge bound of the compiled restore does not apply), `restore` runs
without `--emit-analog` at the defaults, at 2 substeps and at 2 pulses of 3
substeps with no ring, `propose`, raw and restored, and a `restore`, on
three noisy 320x240 frames, and an `eval` of the unconsolidated search
boxes on both corpora. A refactor
must leave every file byte-identical, under every kernel and worker count.
After a deliberate change of the outputs, record the hashes again with
`PYTHONPATH=src python tests/test_golden_trees.py`.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from conftest import KERNELS, kernel_in_use
from cramsim.cli import main

GOLDEN = Path(__file__).with_name("golden_trees.json")

SMALL = [
    "--frame.width", "64", "--frame.height", "64",
    "--synth.frames", "5", "--synth.side_min", "8", "--synth.side_max", "14",
    "--synth.noise_density", "0.01", "--synth.fragment_gap", "2",
    "--synth.seed", "4242",
]
NOISY = ["--synth.frames", "3", "--synth.noise_density", "0.01", "--synth.fragment_gap", "2",
         "--synth.seed", "31"]


def session_hashes(root: Path) -> dict[str, str]:
    """Run the session under root; the sha256 of every file it wrote, by relative path."""
    small, noisy = str(root / "corpus"), str(root / "noisy")
    runs = [
        ["synth", "--out", small, *SMALL],
        ["restore", small, "--out", str(root / "restored"), "--emit-analog"],
        ["propose", small, "--out", str(root / "boxes")],
        ["propose", small, "--out", str(root / "boxes_restored_p2_s3_r0"),
         "--propose.restore", "true", "--diffusion.pulses", "2",
         "--diffusion.substeps_per_pulse", "3", "--frame.ring", "0"],
        ["propose", small, "--out", str(root / "boxes_restored_s2"),
         "--propose.restore", "true", "--diffusion.substeps_per_pulse", "2"],
        ["propose", small, "--out", str(root / "boxes_restored_a0"),
         "--propose.restore", "true", "--diffusion.amplitude", "0"],
        ["eval", small, "--out", str(root / "scores"),
         "--eval.sweep_amplitudes", "0.5,1.0", "--eval.sweep_substeps", "4,8"],
        ["eval", small, "--out", str(root / "scores_raw"), "--pipeline.consolidate", "false"],
        ["probe", "--out", str(root / "probe"), "--frame.width", "64", "--frame.height", "64"],
        ["restore", small, "--out", str(root / "restored_p3_r2"), "--emit-analog",
         "--diffusion.pulses", "3", "--frame.ring", "2"],
        ["restore", small, "--out", str(root / "restored_p2_s3_r0"), "--emit-analog",
         "--diffusion.pulses", "2", "--diffusion.substeps_per_pulse", "3", "--frame.ring", "0"],
        ["restore", small, "--out", str(root / "restored_bits")],
        ["restore", small, "--out", str(root / "restored_bits_s2"),
         "--diffusion.substeps_per_pulse", "2"],
        ["restore", small, "--out", str(root / "restored_bits_p2_s3_r0"),
         "--diffusion.pulses", "2", "--diffusion.substeps_per_pulse", "3", "--frame.ring", "0"],
        ["synth", "--out", noisy, *NOISY],
        ["restore", noisy, "--out", str(root / "noisy_restored")],
        ["propose", noisy, "--out", str(root / "noisy_boxes")],
        ["propose", noisy, "--out", str(root / "noisy_boxes_restored"),
         "--propose.restore", "true"],
        ["eval", noisy, "--out", str(root / "noisy_scores_raw"),
         "--pipeline.consolidate", "false"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_output_trees_match_the_recorded_hashes(tmp_path, monkeypatch):
    want = json.loads(GOLDEN.read_text())
    for kernel in KERNELS:
        with kernel_in_use(kernel):
            for threads in ("1", "2"):
                monkeypatch.setenv("CRAM_SIM_THREADS", threads)
                got = session_hashes(tmp_path / f"{kernel}-{threads}")
                assert sorted(got) == sorted(want), f"{threads} threads"
                differ = [name for name in want if got[name] != want[name]]
                assert not differ, f"{threads} threads: {len(differ)} files differ: {differ[:5]}"


if __name__ == "__main__":
    os.environ["CRAM_SIM_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as scratch:
        hashes = session_hashes(Path(scratch))
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(hashes)} files in {GOLDEN}")
