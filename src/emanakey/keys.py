"""The 70-key target set and its HID boot-keyboard input reports.

Keystroke payloads are 8-byte boot reports: modifier flags, a reserved
zero byte, and six usage-ID slots of which single keystrokes use at most
one. The key-to-usage mapping lives in ``data/hid_keys.txt`` so it can be
audited against the published usage tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .errors import UnknownKeyError

KEY_COUNT = 70

MOD_LEFT_CTRL = 0x01
MOD_LEFT_SHIFT = 0x02
MOD_LEFT_ALT = 0x04


@dataclass(frozen=True, order=True)
class KeyId:
    """One of the 70 target keys."""

    index: int
    label: str = field(compare=False)


@dataclass(frozen=True)
class HidReport:
    """8-byte boot-keyboard input report."""

    modifier: int
    keycodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.keycodes) != 6:
            raise ValueError("boot report carries exactly 6 keycode slots")
        if sum(1 for k in self.keycodes if k) > 1:
            raise ValueError("single-keystroke report may set at most one keycode")

    def to_bytes(self) -> bytes:
        return bytes([self.modifier, 0x00, *self.keycodes])  # reserved byte


def _load_table() -> list[tuple[int, str, int, int]]:
    text = resources.files("emanakey").joinpath("data/hid_keys.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx, label, modifier, usage = line.split("\t")
        rows.append((int(idx), label, int(modifier, 16), int(usage, 16)))
    if len(rows) != KEY_COUNT:
        raise ValueError(f"key table must define {KEY_COUNT} keys, got {len(rows)}")
    if [r[0] for r in rows] != list(range(KEY_COUNT)):
        raise ValueError("key table indices must be 0..69 in order")
    if len({r[1] for r in rows}) != KEY_COUNT:
        raise ValueError("key table labels must be unique")
    return rows


_TABLE = _load_table()

KEYS: tuple[KeyId, ...] = tuple(KeyId(idx, label) for idx, label, _, _ in _TABLE)
_BY_LABEL = {k.label: k for k in KEYS}
_REPORTS = {
    idx: HidReport(modifier=mod, keycodes=(usage, 0, 0, 0, 0, 0))
    for idx, _, mod, usage in _TABLE
}


def key_by_label(label: str) -> KeyId:
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise UnknownKeyError(
            f"unknown key {label!r}; valid labels: {', '.join(k.label for k in KEYS)}"
        ) from None


def key_by_index(index: int) -> KeyId:
    if not 0 <= index < KEY_COUNT:
        raise UnknownKeyError(f"key index {index} outside 0..{KEY_COUNT - 1}")
    return KEYS[index]


def hid_report_for_key(key: KeyId) -> HidReport:
    """Deterministic boot report for a key; total over the 70-key set."""
    if not 0 <= key.index < KEY_COUNT:
        raise UnknownKeyError(f"key index {key.index} outside 0..{KEY_COUNT - 1}")
    return _REPORTS[key.index]
