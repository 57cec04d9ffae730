"""Bit-exact persistence: traces, reference sets, sweep reports, CSV import.

Trace files ("EMTR") hold a fixed-offset float32 little-endian sample
payload followed by a UTF-8 JSON metadata block (ground truth, preset
snapshot, seed, repeat; a file without a repeat reads as None). Reference
files ("EMRF") pack each key's slots 8 per byte, MSB first. Everything is
little-endian so hashes are stable across platforms.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .channel import EmanationTrace, preset_from_document
from .edges import EdgeSeries, ReferenceSet
from .errors import (
    CsvParseError,
    FileFormatError,
    FileVersionError,
    TruncatedFileError,
)
from .keys import KeyId, key_by_index, key_by_label

TRACE_MAGIC = b"EMTR"
TRACE_VERSION = 1
_TRACE_HEADER = struct.Struct("<4sHQBQ")  # magic, version, rate, channels, count

REF_MAGIC = b"EMRF"
REF_VERSION = 1
_REF_HEADER = struct.Struct("<4sHIH")  # magic, version, bit rate, entry count
_REF_ENTRY = struct.Struct("<BH")  # key index, slot count

# The least magnitude that rounds to inf as a float32: float32 max plus
# half its last step.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


# --- trace files --------------------------------------------------------


def write_trace(trace: EmanationTrace, path: str | Path) -> None:
    rate = trace.sample_rate
    if not (1 <= rate < 2**64 and rate % 1 == 0):  # the header's u64 of hertz
        raise ValueError(f"sample rate {rate!r} Hz is not whole hertz in [1, 2**64)")
    samples = np.ascontiguousarray(trace.samples, dtype="<f4")
    label = trace.ground_truth.label if trace.ground_truth else None
    preset = "null" if trace.preset is None else trace.preset.json_text
    # The bytes json.dumps(meta, sort_keys=True) gives, with the preset's
    # part made once per preset.
    meta = (
        f'{{"ground_truth": {json.dumps(label)}, "preset": {preset}, '
        f'"repeat": {json.dumps(trace.repeat)}, "seed": {json.dumps(trace.seed)}}}'
    )
    header = _TRACE_HEADER.pack(
        TRACE_MAGIC,
        TRACE_VERSION,
        int(rate),
        1,
        samples.size,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples.tobytes())
        fh.write(meta.encode("utf-8"))


def read_trace(path: str | Path) -> EmanationTrace:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _TRACE_HEADER.size:
        raise TruncatedFileError(f"{path}: shorter than the trace header")
    magic, version, rate, channels, count = _TRACE_HEADER.unpack_from(raw)
    if magic != TRACE_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {TRACE_MAGIC!r}")
    if version != TRACE_VERSION:
        raise FileVersionError(f"{path}: unsupported trace version {version}")
    if channels != 1:
        raise FileFormatError(f"{path}: only single-channel traces supported")
    payload_end = _TRACE_HEADER.size + 4 * count
    if len(raw) < payload_end:
        raise TruncatedFileError(
            f"{path}: declares {count} samples but payload is truncated"
        )
    payload = np.frombuffer(raw, dtype="<f4", count=count, offset=_TRACE_HEADER.size)
    samples = payload.copy()  # writable, and detached from the file's bytes
    try:
        meta = json.loads(raw[payload_end:].decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: corrupt metadata block: {exc}") from exc
    if not isinstance(meta, dict):
        raise FileFormatError(f"{path}: metadata block is not a JSON object")
    label, preset = meta.get("ground_truth"), meta.get("preset")
    try:
        return EmanationTrace(
            samples=samples,
            sample_rate=float(rate),
            ground_truth=None if label is None else key_by_label(label),
            preset=None if preset is None else preset_from_document(preset, path),
            seed=_int_or_none(meta, "seed", path),
            repeat=_int_or_none(meta, "repeat", path),
        )
    except ValueError as exc:  # a non-finite sample or a zero rate
        raise FileFormatError(f"{path}: {exc}") from exc


def _int_or_none(meta: dict, key: str, path: str | Path) -> int | None:
    """meta[key] if it is an int or missing/null; they name a noise stream."""
    value = meta.get(key)
    if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
        raise FileFormatError(f"{path}: metadata {key} {value!r} is not an integer")
    return value


def import_csv(path: str | Path, sample_rate: float) -> EmanationTrace:
    """One sample per line; a single leading header line is tolerated.

    A row that is no number, or none that is finite as a float32 sample,
    raises CsvParseError with its line number.
    """
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if lineno == 1 and not values:
                    continue  # header
                raise CsvParseError(
                    f"{path}: non-numeric row {text!r} at line {lineno}", lineno
                ) from None
            if not abs(value) < _FLOAT32_OVERFLOW:  # NaN compares false
                raise CsvParseError(
                    f"{path}: non-finite row {text!r} at line {lineno}", lineno
                )
            values.append(value)
    return EmanationTrace(
        samples=np.asarray(values, dtype=np.float32), sample_rate=sample_rate
    )


# --- reference files ----------------------------------------------------


def write_reference_set(refs: ReferenceSet, path: str | Path) -> None:
    # The header's u32 rate, from which the reader rebuilds the width as
    # 1 / rate: a set is written only if that gives its width back exactly.
    bit_rate = round(refs.bit_rate)
    if not (1 <= bit_rate < 2**32 and 1.0 / bit_rate == refs.bit_width):
        raise ValueError(
            f"bit rate {refs.bit_rate!r} b/s is not a whole rate in [1, 2**32) b/s"
        )
    with open(path, "wb") as fh:
        fh.write(_REF_HEADER.pack(REF_MAGIC, REF_VERSION, bit_rate, len(refs)))
        for key in refs.keys_in_order():
            series = refs[key]
            fh.write(_REF_ENTRY.pack(key.index, len(series)))
            fh.write(np.packbits(series.slots).tobytes())


def read_reference_set(path: str | Path) -> ReferenceSet:
    raw = Path(path).read_bytes()
    if len(raw) < _REF_HEADER.size:
        raise TruncatedFileError(f"{path}: shorter than the reference header")
    magic, version, bit_rate, count = _REF_HEADER.unpack_from(raw)
    if magic != REF_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {REF_MAGIC!r}")
    if version != REF_VERSION:
        raise FileVersionError(f"{path}: unsupported reference version {version}")
    if bit_rate == 0:
        raise FileFormatError(f"{path}: bit rate 0")
    offset = _REF_HEADER.size
    bit_width = 1.0 / bit_rate
    entries: dict[KeyId, EdgeSeries] = {}
    for _ in range(count):
        if len(raw) < offset + _REF_ENTRY.size:
            raise TruncatedFileError(f"{path}: truncated reference entry header")
        key_index, slot_count = _REF_ENTRY.unpack_from(raw, offset)
        offset += _REF_ENTRY.size
        nbytes = (slot_count + 7) // 8
        if len(raw) < offset + nbytes:
            raise TruncatedFileError(f"{path}: truncated slots for key {key_index}")
        packed = np.frombuffer(raw[offset : offset + nbytes], dtype=np.uint8)
        offset += nbytes
        key = key_by_index(key_index)
        if key in entries:
            raise FileFormatError(f"{path}: key index {key_index} listed twice")
        slots = np.unpackbits(packed)[:slot_count]
        entries[key] = EdgeSeries(slots=slots, bit_width=bit_width, origin=0.0)
    try:
        return ReferenceSet(entries=entries)
    except ValueError as exc:
        raise FileFormatError(f"{path}: not a reference set: {exc}") from exc


# --- sweep reports ------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One (preset, key) aggregation line; the fields are the report columns."""

    preset: str
    gain_db: float
    noise_density: float
    key: str
    repeats: int
    correct: int
    mean_score: float
    mean_margin: float

    def __post_init__(self):
        if self.correct > self.repeats:
            raise ValueError("correct count cannot exceed repeats")

    def as_dict(self) -> dict:
        return asdict(self)


REPORT_COLUMNS = tuple(f.name for f in fields(SweepRow))
_COLUMN_TYPES = get_type_hints(SweepRow)


class SweepReport:
    """Rows plus per-preset accuracy aggregates and the generating config."""

    def __init__(self, rows: list[SweepRow], config: dict | None = None):
        self.rows = list(rows)
        self.config = dict(config or {})

    def accuracy_by_preset(self) -> dict[str, float]:
        totals: dict[str, list[int]] = {}
        for row in self.rows:
            t = totals.setdefault(row.preset, [0, 0])
            t[0] += row.correct
            t[1] += row.repeats
        return {p: c / n for p, (c, n) in totals.items()}

    def __len__(self):
        return len(self.rows)


def write_report(report: SweepReport, path: str | Path, fmt: str = "csv") -> None:
    """Stable column order; accuracy recomputable from the rows."""
    if not report.rows:
        raise ValueError("refusing to write an empty sweep report")
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in sorted(report.config.items()):
            buf.write(f"# {key} = {value}\n")
        writer = csv.writer(buf)
        writer.writerow(REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow(astuple(row))
        Path(path).write_text(buf.getvalue(), encoding="utf-8")
    elif fmt == "json":
        doc = {
            "config": report.config,
            "rows": [row.as_dict() for row in report.rows],
            "accuracy_by_preset": report.accuracy_by_preset(),
        }
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def read_report(path: str | Path) -> SweepReport:
    """Read back either format (column order is normative for CSV).

    A report with a missing key or column, or with no rows, raises
    FileFormatError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
            report = SweepReport([SweepRow(**r) for r in doc["rows"]], doc.get("config"))
        else:
            config = {}
            lines = []
            for line in text.splitlines():
                if line.startswith("# ") and " = " in line:
                    key, value = line[2:].split(" = ", 1)
                    config[key] = value
                else:
                    lines.append(line)
            rows = [
                SweepRow(**{c: _COLUMN_TYPES[c](rec[c]) for c in REPORT_COLUMNS})
                for rec in csv.DictReader(lines)
            ]
            report = SweepReport(rows, config=config)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: not a sweep report ({exc!r})") from exc
    if not report.rows:
        raise FileFormatError(f"{path}: report contains no rows")
    return report
