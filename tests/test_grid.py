"""Frame/event containers and the PBM/PGM/event file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusion_reference import embed
from cramsim.errors import ConfigError, EventRangeError, FrameFormatError
from cramsim.grid import (
    AnalogState,
    BinaryFrame,
    Event,
    frame_from_events,
    frame_to_bytes,
    load_analog,
    load_events_bin,
    load_events_csv,
    load_frame,
    save_analog,
    save_events_bin,
    save_events_csv,
    save_frame,
)


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


def test_analog_state_voltage_range_enforced():
    with pytest.raises(ValueError):
        AnalogState(np.full((4, 4), 1.5), ring=1)
    with pytest.raises(ValueError):
        AnalogState(np.full((4, 4), -0.5), ring=1)
    # ring must leave a non-empty interior
    with pytest.raises(ValueError):
        AnalogState(np.zeros((2, 2)), ring=1)


def test_embed_puts_pixels_inside_zero_ring():
    f = BinaryFrame.zeros(3, 2)
    f.pixels[0, 1] = 1
    state = embed(f, ring=2)
    assert state.volts.shape == (2 + 4, 3 + 4)
    assert state.interior()[0, 1] == 1.0
    assert state.volts.sum() == 1.0
    assert (state.width, state.height) == (3, 2)


# --- event accumulation


def test_events_accumulate_half_open_window():
    events = [Event(0, 1, 1, 1), Event(5, 2, 0, 0), Event(10, 3, 3, 1)]
    f = frame_from_events(events, window=(0, 10), width=5, height=5)
    assert f.pixels[1, 1] == 1 and f.pixels[0, 2] == 1
    assert f.pixels[3, 3] == 0  # t == window end is excluded
    assert f.popcount() == 2


def test_events_idempotent_and_order_insensitive():
    events = [Event(3, 2, 2, 1), Event(1, 0, 0, 1), Event(2, 2, 2, 0)]
    f1 = frame_from_events(events, (0, 10), width=4, height=4)
    f2 = frame_from_events(events[::-1] + events, (0, 10), width=4, height=4)
    assert f1 == f2


def test_events_polarity_filter():
    events = [Event(0, 0, 0, 0), Event(1, 1, 1, 1)]
    f = frame_from_events(events, (0, 5), 3, 3, polarity_mode="positive_only")
    assert f.pixels[0, 0] == 0 and f.pixels[1, 1] == 1
    with pytest.raises(ConfigError):
        frame_from_events(events, (0, 5), 3, 3, polarity_mode="negatives")


def test_event_out_of_range_names_first_bad_index():
    events = [Event(0, 0, 0, 1), Event(1, 9, 0, 1)]
    with pytest.raises(EventRangeError) as exc:
        frame_from_events(events, (0, 5), width=4, height=4)
    assert "1" in str(exc.value)


def test_out_of_window_event_still_range_checked():
    # coordinate validation applies to every event, kept or not
    with pytest.raises(EventRangeError):
        frame_from_events([Event(99, 50, 0, 1)], (0, 10), width=4, height=4)


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
    save_frame(f, path)
    assert load_frame(path) == f


def test_pbm_width_not_multiple_of_eight(scratch):
    f = BinaryFrame.zeros(13, 3)
    f.pixels[:, 12] = 1
    path = scratch / "w13.pbm"
    save_frame(f, path)
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


def test_pbm_rejects_silly_dimensions(scratch):
    path = scratch / "dim.pbm"
    path.write_bytes(b"P4\n0 4\n")
    with pytest.raises(FrameFormatError):
        load_frame(path)
    path.write_bytes(b"P4\n5000 4\n" + b"\x00" * 4000)
    with pytest.raises(FrameFormatError):
        load_frame(path)


# --- PGM snapshots


def test_pgm_roundtrip_quantizes_to_8_bits(scratch):
    rng = np.random.default_rng(3)
    state = AnalogState(rng.random((7, 9)), ring=2)
    path = scratch / "v.pgm"
    save_analog(state, path)
    back = load_analog(path)
    assert back.ring == 2
    assert back.volts.shape == state.volts.shape
    assert np.abs(back.volts - state.volts).max() <= 0.5 / 255 + 1e-12


def test_pgm_not_p5_rejected(scratch):
    path = scratch / "x.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(FrameFormatError):
        load_analog(path)


@pytest.mark.parametrize(
    "header, offset",
    [
        (b"P5\n# ring x\n4 4\n255\n", 3),  # ring that is not an integer
        (b"P5\n# ring -1\n4 4\n255\n", 3),  # negative ring
        (b"P5\n# ring 2\n4 5\n255\n", 12),  # 4 columns leave no interior for ring 2
    ],
)
def test_pgm_bad_ring_names_offset(scratch, header, offset):
    path = scratch / "ring.pgm"
    path.write_bytes(header + b"\x00" * 20)
    with pytest.raises(FrameFormatError) as err:
        load_analog(path)
    assert err.value.offset == offset
    assert f"(byte offset {offset})" in str(err.value)


# --- event stream files


def test_events_csv_roundtrip(scratch):
    events = [Event(0, 5, 6, 1), Event(3, 0, 0, 0), Event(3, 2, 1, 1)]
    path = scratch / "ev.csv"
    save_events_csv(events, path)
    assert path.read_text().splitlines()[0] == "t,x,y,p"
    assert load_events_csv(path) == events


def test_events_csv_rejects_bad_header_and_order(scratch):
    path = scratch / "bad.csv"
    path.write_text("time,x,y,p\n0,0,0,1\n")
    with pytest.raises(FrameFormatError):
        load_events_csv(path)
    path.write_text("t,x,y,p\n5,0,0,1\n4,0,0,1\n")
    with pytest.raises(FrameFormatError):
        load_events_csv(path)
    path.write_text("t,x,y,p\n5,0,0,7\n")
    with pytest.raises(FrameFormatError):
        load_events_csv(path)


def test_events_bin_roundtrip_record_size(scratch):
    events = [Event(2**32 - 1, 2**16 - 1, 0, 1), Event(2**32 - 1, 1, 2, 0)]
    path = scratch / "ev.bin"
    save_events_bin(events, path)
    assert path.stat().st_size == 9 * len(events)
    assert load_events_bin(path) == events


def test_events_bin_rejects_misaligned_payload(scratch):
    path = scratch / "mis.bin"
    path.write_bytes(b"\x00" * 10)
    with pytest.raises(FrameFormatError):
        load_events_bin(path)


def test_events_bin_rejects_unrepresentable():
    with pytest.raises(EventRangeError):
        save_events_bin([Event(2**32, 0, 0, 1)], "/dev/null")
