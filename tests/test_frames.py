import pytest

from emanakey import KEYS, build_keystroke_transaction, key_by_label
from emanakey.bits import LineState, bits_from_int
from emanakey.crc import (
    CRC5_RESIDUAL,
    CRC16_RESIDUAL,
    crc5_residual,
    crc16_residual,
)
from emanakey.frames import FRAME_BUDGET_S, Packet, PacketKind


def test_transaction_shape():
    frame = build_keystroke_transaction(key_by_label("a"))
    kinds = [p.kind for p in frame.packets]
    assert kinds == [PacketKind.IN, PacketKind.DATA0, PacketKind.ACK]
    assert frame.capture_start == 1


def test_packet_sizes():
    frame = build_keystroke_transaction(key_by_label("a"))
    token, data, ack = frame.packets
    assert len(token.bits()) == 32  # SYNC + PID + 11 field bits + CRC5
    assert len(data.bits()) == 96  # SYNC + PID + 64 payload bits + CRC16
    assert len(ack.bits()) == 16  # SYNC + PID only
    assert ack.crc is None


def test_every_packet_starts_with_sync():
    frame = build_keystroke_transaction(key_by_label("Q"))
    for packet in frame.packets:
        assert packet.bits()[:8] == (0, 0, 0, 0, 0, 0, 0, 1)


def test_pid_bytes():
    assert PacketKind.IN.pid_byte == 0x69
    assert PacketKind.DATA0.pid_byte == 0xC3
    assert PacketKind.DATA1.pid_byte == 0x4B
    assert PacketKind.ACK.pid_byte == 0xD2
    assert PacketKind.NAK.pid_byte == 0x5A
    assert PacketKind.SOF.pid_byte == 0xA5
    for kind in PacketKind:
        pid = kind.pid_byte
        assert (pid & 0xF) == (~pid >> 4) & 0xF  # check nibble complements type


def test_duration_under_budget():
    for label in ("a", "Z", "ENTER", "SPACE"):
        frame = build_keystroke_transaction(key_by_label(label))
        assert frame.duration_s < FRAME_BUDGET_S
        # one transaction is a small slice of the budget
        assert 10e-6 < frame.duration_s < 20e-6


def test_bit_time():
    frame = build_keystroke_transaction(key_by_label("a"))
    assert frame.bit_rate == 12e6
    assert frame.bit_time == pytest.approx(0.0833e-6, rel=1e-3)


def test_generated_crcs_satisfy_residual():
    for key in KEYS:
        frame = build_keystroke_transaction(key)
        token, data, _ = frame.packets
        token_field = token.field_bits() + bits_from_int(token.crc, 5)
        assert crc5_residual(token_field) == CRC5_RESIDUAL
        data_field = data.field_bits() + bits_from_int(data.crc, 16)
        assert crc16_residual(data_field) == CRC16_RESIDUAL


def test_transition_count_equals_stuffed_zero_count_per_frame():
    from emanakey.bits import LineState, nrzi_encode

    for key in KEYS:
        frame = build_keystroke_transaction(key)
        for packet in frame.packets:
            stuffed = packet.stuffed_bits()
            symbols = nrzi_encode(stuffed)
            prev = LineState.J
            transitions = 0
            for s in symbols:
                transitions += s != prev
                prev = s
            assert transitions == list(stuffed).count(0)


def test_stuffed_streams_never_run_seven_ones():
    for key in KEYS:
        frame = build_keystroke_transaction(key)
        for packet in frame.packets:
            run = 0
            for b in packet.stuffed_bits():
                run = run + 1 if b else 0
                assert run <= 6


def test_frames_differ_only_in_data_packet():
    fa = build_keystroke_transaction(key_by_label("a"))
    fb = build_keystroke_transaction(key_by_label("b"))
    assert fa.packets[0].bits() == fb.packets[0].bits()
    assert fa.packets[2].bits() == fb.packets[2].bits()
    assert fa.packets[1].bits() != fb.packets[1].bits()


def test_frame_determinism():
    k = key_by_label("7")
    f1, f2 = build_keystroke_transaction(k), build_keystroke_transaction(k)
    assert f1.slot_states("full") == f2.slot_states("full")
    assert f1.bit_time == f2.bit_time


def test_stuffed_length_varies_by_key():
    lengths = {
        len(build_keystroke_transaction(k).packets[1].stuffed_bits()) for k in KEYS
    }
    assert len(lengths) > 1  # stuffing depends on payload content


def test_packet_line_states_end_with_eop():
    packet = Packet(PacketKind.ACK)
    states = packet.line_states()
    assert states[-3:] == [LineState.SE0, LineState.SE0, LineState.J]


def test_capture_window_is_data_through_ack():
    frame = build_keystroke_transaction(key_by_label("a"))
    full = frame.slot_count("full")
    capture = frame.slot_count("capture")
    token_slots = len(frame.packets[0].stuffed_bits()) + 3 + frame.gap_bits
    assert full == capture + token_slots


def test_data_toggle_changes_pid():
    frame = build_keystroke_transaction(key_by_label("a"), data_toggle=PacketKind.DATA1)
    assert frame.packets[1].kind == PacketKind.DATA1
    with pytest.raises(ValueError):
        build_keystroke_transaction(key_by_label("a"), data_toggle=PacketKind.ACK)


def test_optional_sof():
    frame = build_keystroke_transaction(key_by_label("a"), include_sof=True)
    assert frame.packets[0].kind == PacketKind.SOF
    assert frame.capture_start == 2
    assert frame.duration_s < FRAME_BUDGET_S


def test_token_field_validation():
    with pytest.raises(ValueError):
        Packet(PacketKind.IN, address=128, endpoint=0)
    with pytest.raises(ValueError):
        Packet(PacketKind.IN, address=1)
    with pytest.raises(ValueError):
        Packet(PacketKind.DATA0)
