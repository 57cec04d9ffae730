import pytest

from emanakey import (
    KEYS,
    UnknownKeyError,
    hid_report_for_key,
    key_by_index,
    key_by_label,
)
from emanakey.keys import MOD_LEFT_ALT, MOD_LEFT_CTRL, MOD_LEFT_SHIFT


def test_exactly_seventy_keys():
    assert len(KEYS) == 70
    assert len({k.label for k in KEYS}) == 70
    assert [k.index for k in KEYS] == list(range(70))


def test_key_set_composition():
    labels = {k.label for k in KEYS}
    assert {str(d) for d in range(10)} <= labels
    assert {chr(c) for c in range(ord("a"), ord("z") + 1)} <= labels
    assert {chr(c) for c in range(ord("A"), ord("Z") + 1)} <= labels
    assert {".", ",", "SPACE", "BACKSPACE", "CTRL", "ALT", "SHIFT", "ENTER"} <= labels


def test_label_index_bijection():
    for key in KEYS:
        assert key_by_label(key.label) == key
        assert key_by_index(key.index) == key


# Transcribed from the published usage table before the build; the data
# file must agree with these spot values.
@pytest.mark.parametrize(
    "label,modifier,usage",
    [
        ("a", 0x00, 0x04),
        ("z", 0x00, 0x1D),
        ("A", MOD_LEFT_SHIFT, 0x04),
        ("Z", MOD_LEFT_SHIFT, 0x1D),
        ("1", 0x00, 0x1E),
        ("0", 0x00, 0x27),
        (".", 0x00, 0x37),
        (",", 0x00, 0x36),
        ("SPACE", 0x00, 0x2C),
        ("BACKSPACE", 0x00, 0x2A),
        ("ENTER", 0x00, 0x28),
    ],
)
def test_usage_table_transcription(label, modifier, usage):
    report = hid_report_for_key(key_by_label(label))
    assert report.modifier == modifier
    assert report.keycodes[0] == usage
    assert report.keycodes[1:] == (0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "label,modifier",
    [("CTRL", MOD_LEFT_CTRL), ("ALT", MOD_LEFT_ALT), ("SHIFT", MOD_LEFT_SHIFT)],
)
def test_modifier_only_keys_have_zero_keycodes(label, modifier):
    report = hid_report_for_key(key_by_label(label))
    assert report.modifier == modifier
    assert report.keycodes == (0, 0, 0, 0, 0, 0)


def test_report_layout():
    report = hid_report_for_key(key_by_label("q"))
    raw = report.to_bytes()
    assert len(raw) == 8
    assert raw[1] == 0x00  # reserved byte


def test_uppercase_is_shift_plus_base():
    for lower in "abcdefghijklmnopqrstuvwxyz":
        lo = hid_report_for_key(key_by_label(lower))
        hi = hid_report_for_key(key_by_label(lower.upper()))
        assert hi.modifier == MOD_LEFT_SHIFT
        assert hi.keycodes == lo.keycodes


def test_unknown_key_rejected():
    with pytest.raises(UnknownKeyError):
        key_by_label("ESC")
    with pytest.raises(UnknownKeyError):
        key_by_index(70)
