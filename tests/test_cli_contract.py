"""The CLI's error contract on generated command lines.

Each example runs one command in process on a corpus of two small frames,
some of whose PBM and ground-truth bytes may be mutated, with overrides
drawn over every configuration key. The values are in range, at a
boundary, NaN, infinite, empty, 2**63 or non-ASCII. Whatever the argv, the
command exits 0, 1 or 2, prints one ``cram-sim: error:`` line (and nothing
else on stderr) exactly when it fails, and a command that fails its checks
leaves no ``--out``. A frame found malformed only when its turn comes fails
the command with exit 1 after the frames before it were written, each whole.
``probe`` is left out: its guard exits 3 by design when the diffusion cannot
settle.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate
from cramsim.cli import main
from cramsim.config import known_keys
from cramsim.grid import BinaryFrame, frame_to_bytes

COMMANDS = ["synth", "restore", "propose", "eval"]

# small, so that every command stays quick whatever is drawn
BASE = ["--frame.width", "24", "--frame.height", "16", "--synth.frames", "2",
        "--synth.side_min", "4", "--synth.side_max", "8"]

VALUES = {
    "in range": ["0", "1", "2", "3", "8", "0.1", "0.25", "0.5", "0.9", "true", "false",
                 "0.3,0.7", "4,8", "area", "max_side"],
    # a valid count near 2**31 would run for hours, so counts stay at 64 or are invalid
    "boundary": ["-1", "64", "4097", "0.0", "1.0", "1.5", str(2**31)],
    "not a number": ["nan", "-nan", "NaN"],
    "infinite": ["inf", "-inf", "1e309"],
    "empty": ["", " ", ","],
    "2**63": [str(2**63), str(-2**63), str(2**64 + 1)],
    "non-ASCII": ["é", "٣", "１", "0.５", " ", "真"],
}
values = st.sampled_from(sorted(VALUES)).flatmap(lambda kind: st.sampled_from(VALUES[kind]))


def _frame(seed: int, height: int, width: int) -> bytes:
    pixels = (BinaryFrame.zeros(width, height).pixels + (seed % 2)) % 2
    pixels[2:height - 2, 3:width - 3] = 1 - seed % 2
    return frame_to_bytes(BinaryFrame(pixels))


FILES = {
    "corpus/frame_00000.pbm": _frame(0, 16, 24),
    "corpus/frame_00000.gt.json": b'[{"x0": 3, "y0": 2, "x1": 20, "y1": 13}]\n',
    "corpus/frame_00001.pbm": _frame(1, 12, 20),
    "corpus/frame_00001.gt.json": b"[]\n",
}

edits = st.lists(st.tuples(st.integers(0, 400), st.sampled_from(["replace", "insert",
                                                                 "delete", "truncate"]),
                           st.integers(0, 255)), min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    overrides=st.lists(st.tuples(st.sampled_from(known_keys()), values), max_size=3),
    equals_form=st.booleans(),
    mutations=st.dictionaries(st.sampled_from(sorted(FILES)), edits, max_size=2),
)
def test_generated_argv_ends_in_a_documented_code(command, overrides, equals_form, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus").mkdir()
        for name, data in FILES.items():
            (root / name).write_bytes(mutate(data, mutations.get(name, [])))
        argv = [command] + ([str(root / "corpus")] if command != "synth" else []) + BASE
        for key, value in overrides:
            argv += [f"--{key}={value}"] if equals_form else [f"--{key}", value]
        out = root / "out"
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # nothing the command writes by mistake lands outside tmp
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(out)])
        finally:
            os.chdir(cwd)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), argv
        assert len(lines) == (code != 0), (argv, lines)
        assert all(line.startswith("cram-sim: error: ") for line in lines), (argv, lines)
        if code != 0 and out.exists():
            assert code == 1, argv
            assert not any(p.name.startswith(".") for p in out.iterdir()), argv  # no temp file
        assert {p.name for p in root.iterdir()} <= {"corpus", "out"}, argv
