"""Frame and analog-state containers and the PBM/PGM file formats."""

import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusion_reference import embed
from cramsim.cli import main
from cramsim.errors import FrameFormatError
from cramsim.grid import AnalogState, BinaryFrame, analog_to_bytes, frame_to_bytes, load_frame


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("grid")


# --- containers


def test_zeros_shape_accessors():
    f = BinaryFrame.zeros(10, 6)
    assert (f.width, f.height) == (10, 6)
    assert f.pixels.shape == (6, 10)
    assert f.popcount() == 0


def test_frame_rejects_non_binary():
    with pytest.raises(ValueError):
        BinaryFrame(np.full((3, 3), 2, dtype=np.uint8))
    with pytest.raises(ValueError):
        BinaryFrame(np.zeros((0, 4), dtype=np.uint8))


def test_frame_equality_is_by_content():
    a = BinaryFrame.zeros(4, 4)
    b = BinaryFrame.zeros(4, 4)
    assert a == b
    b.pixels[1, 2] = 1
    assert a != b
    assert a != "not a frame"


def test_frame_holds_c_contiguous_bytes_that_stay_writable():
    """The frame alone sets the pixel format, and cannot be given another array."""
    source = np.asfortranarray(np.eye(3, 5, dtype=np.float64))
    f = BinaryFrame(source[:, ::2])
    assert f.pixels.dtype == np.uint8 and f.pixels.flags.c_contiguous
    assert f.pixels.tolist() == [[1, 0, 0], [0, 0, 0], [0, 1, 0]]
    with pytest.raises(FrozenInstanceError):
        f.pixels = np.ones((3, 3), dtype=np.uint8)
    f.pixels[1, 1] = 1
    assert f.popcount() == 3


def test_analog_state_voltage_range_enforced():
    with pytest.raises(ValueError):
        AnalogState(np.full((4, 4), 1.5), ring=1)
    with pytest.raises(ValueError):
        AnalogState(np.full((4, 4), -0.5), ring=1)
    # ring must leave a non-empty interior
    with pytest.raises(ValueError):
        AnalogState(np.zeros((2, 2)), ring=1)
    with pytest.raises(ValueError, match="2-D"):
        AnalogState(np.zeros(16), ring=1)
    with pytest.raises(ValueError, match="ring width"):
        AnalogState(np.zeros((4, 4)), ring=-1)


def test_embed_puts_pixels_inside_zero_ring():
    f = BinaryFrame.zeros(3, 2)
    f.pixels[0, 1] = 1
    state = embed(f, ring=2)
    assert state.volts.shape == (2 + 4, 3 + 4)
    assert state.interior()[0, 1] == 1.0
    assert state.volts.sum() == 1.0


# --- PBM round trips


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pbm_roundtrip_any_geometry(scratch, data):
    h = data.draw(st.integers(1, 33))
    w = data.draw(st.integers(1, 33))
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=h * w, max_size=h * w)
    )
    f = BinaryFrame(np.array(bits, dtype=np.uint8).reshape(h, w))
    path = scratch / "rt.pbm"
    path.write_bytes(frame_to_bytes(f))
    assert load_frame(path) == f


def test_pbm_width_not_multiple_of_eight(scratch):
    f = BinaryFrame.zeros(13, 3)
    f.pixels[:, 12] = 1
    path = scratch / "w13.pbm"
    path.write_bytes(frame_to_bytes(f))
    g = load_frame(path)
    assert g == f
    # each 13-bit row packs into 2 bytes
    assert len(frame_to_bytes(f)) == len(b"P4\n13 3\n") + 2 * 3


def test_pbm_header_comments_are_skipped(scratch):
    path = scratch / "hdr.pbm"
    payload = bytes([0b10100000])
    path.write_bytes(b"P4\n# a comment\n 3 # inline\n1\n" + payload)
    f = load_frame(path)
    assert (f.width, f.height) == (3, 1)
    assert f.pixels.tolist() == [[1, 0, 1]]


def test_pbm_bad_magic_offset_zero(scratch):
    path = scratch / "bad.pbm"
    path.write_bytes(b"P1\n2 2\n0 0 0 0\n")
    with pytest.raises(FrameFormatError) as exc:
        load_frame(path)
    assert "offset 0" in str(exc.value)


def test_pbm_truncated_payload_reports_offset(scratch):
    path = scratch / "trunc.pbm"
    path.write_bytes(b"P4\n16 2\n\x00")
    with pytest.raises(FrameFormatError) as exc:
        load_frame(path)
    assert "truncated" in str(exc.value)
    # a header that ends in its last digit, with not even the byte that ends it
    path.write_bytes(b"P4\n8 8")
    with pytest.raises(FrameFormatError) as exc:
        load_frame(path)
    assert str(exc.value) == "missing payload (byte offset 6)"


def test_pbm_rejects_silly_dimensions(scratch):
    path = scratch / "dim.pbm"
    path.write_bytes(b"P4\n0 4\n")
    with pytest.raises(FrameFormatError):
        load_frame(path)
    path.write_bytes(b"P4\n5000 4\n" + b"\x00" * 4000)
    with pytest.raises(FrameFormatError):
        load_frame(path)
    with pytest.raises(FrameFormatError, match="exceeds"):
        frame_to_bytes(BinaryFrame.zeros(4097, 1))


@pytest.mark.parametrize("header, error", [
    (b"P4\n1_0 2\n", "bad width token b'1_0' (byte offset 3)"),
    (b"P4\n8 +2\n", "bad height token b'+2' (byte offset 5)"),
], ids=["underscore", "sign"])
def test_pbm_dimensions_are_ascii_decimal(scratch, header, error):
    """int() would read both tokens; the header allows only the digits 0-9."""
    path = scratch / "dims.pbm"
    path.write_bytes(header + b"\x00" * 4)
    with pytest.raises(FrameFormatError) as exc:
        load_frame(path)
    assert str(exc.value) == error
    assert main(["propose", str(path), "--out", str(scratch / "dims_boxes")]) == 1


# --- PGM snapshots


def test_pgm_bytes_quantize_to_8_bits():
    rng = np.random.default_rng(3)
    state = AnalogState(rng.random((7, 9)), ring=2)
    data = analog_to_bytes(state)
    header = b"P5\n# ring 2\n9 7\n255\n"
    assert data[:len(header)] == header
    assert data[len(header):] == np.rint(state.volts * 255).astype(np.uint8).tobytes()


def test_pgm_bytes_of_a_state_wider_than_a_frame():
    """A ring of up to MAX_DIM cells makes states over MAX_DIM a side; they are written."""
    state = AnalogState(np.full((4098, 3), 0.5), ring=1)
    data = analog_to_bytes(state)
    header = b"P5\n# ring 1\n3 4098\n255\n"
    assert data[:len(header)] == header
    assert data[len(header):] == bytes([128]) * (4098 * 3)


def test_pgm_bytes_hold_one_float_temporary():
    """Scaling and rounding share one float64 array the size of the state."""
    state = AnalogState(np.random.default_rng(5).random((1026, 1026)), ring=1)
    tracemalloc.start()
    try:
        analog_to_bytes(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * state.volts.nbytes
