import json
import re

import numpy as np
import pytest

from emanakey import (
    CsvParseError,
    EmanationTrace,
    FileFormatError,
    FileVersionError,
    TruncatedFileError,
    get_preset,
    import_csv,
    key_by_label,
    read_reference_set,
    read_report,
    read_trace,
    write_reference_set,
    write_report,
    write_trace,
)
from emanakey.traceio import _TRACE_HEADER, REPORT_COLUMNS, SweepReport, SweepRow


def make_trace(n=1000, seed=1):
    rng = np.random.default_rng(seed)
    return EmanationTrace(
        samples=rng.normal(size=n).astype(np.float32),
        sample_rate=250e6,
        ground_truth=key_by_label("q"),
        preset=get_preset("open-space-3m"),
        seed=1234,
    )


# --- trace files ----------------------------------------------------------


def test_trace_roundtrip_bit_exact(tmp_path):
    trace = make_trace(n=1_000_000)
    path = tmp_path / "t.emtr"
    write_trace(trace, path)
    back = read_trace(path)
    assert np.array_equal(back.samples, trace.samples)
    assert back == trace


def test_trace_roundtrip_without_metadata(tmp_path):
    trace = EmanationTrace(
        samples=np.arange(8, dtype=np.float32), sample_rate=60e6
    )
    path = tmp_path / "bare.emtr"
    write_trace(trace, path)
    back = read_trace(path)
    assert back == trace
    assert back.ground_truth is None
    assert back.preset is None


def test_trace_file_regenerates_its_own_samples(tmp_path):
    # The metadata names the noise stream: (seed, key index, repeat).
    from emanakey import apply_channel, synth_dataset
    from emanakey.channel import clean_waveform
    from emanakey.keys import KEYS

    preset = get_preset("office-12m")
    traces = synth_dataset(list(KEYS[:3]), preset, repeats=2, master_seed=808)
    assert [t.repeat for t in traces] == [0, 0, 0, 1, 1, 1]
    for i, trace in enumerate(traces):
        path = tmp_path / f"{i}.emtr"
        write_trace(trace, path)
        back = read_trace(path)
        assert back == trace
        key = back.ground_truth
        again = apply_channel(
            clean_waveform(key), back.preset, ground_truth=key,
            stream=(back.seed, back.repeat),
        )
        assert np.array_equal(again.samples, back.samples)


def test_trace_file_without_repeat_reads_as_none(tmp_path):
    trace = make_trace(n=16)
    path = tmp_path / "t.emtr"
    write_trace(trace, path)
    raw = path.read_bytes()
    payload_end = _TRACE_HEADER.size + 4 * trace.samples.size
    meta = json.loads(raw[payload_end:])
    assert meta.pop("repeat") is None
    path.write_bytes(raw[:payload_end] + json.dumps(meta, sort_keys=True).encode())
    back = read_trace(path)
    assert back.repeat is None
    assert back == trace


@pytest.mark.parametrize("key", ["seed", "repeat"])
@pytest.mark.parametrize("value", ["x", 1.5, [1], True])
def test_trace_file_non_integer_stream_metadata_is_format_error(tmp_path, key, value):
    trace = make_trace(n=16)
    path = tmp_path / "t.emtr"
    write_trace(trace, path)
    raw = path.read_bytes()
    payload_end = _TRACE_HEADER.size + 4 * trace.samples.size
    meta = json.loads(raw[payload_end:])
    meta[key] = value
    path.write_bytes(raw[:payload_end] + json.dumps(meta).encode())
    with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}.*{key}"):
        read_trace(path)


def test_trace_bad_magic(tmp_path):
    path = tmp_path / "x.emtr"
    write_trace(make_trace(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(raw)
    with pytest.raises(FileFormatError):
        read_trace(path)


def test_trace_truncation(tmp_path):
    path = tmp_path / "t.emtr"
    write_trace(make_trace(n=4096), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 3])
    with pytest.raises(TruncatedFileError):
        read_trace(path)


def test_trace_version_mismatch(tmp_path):
    path = tmp_path / "t.emtr"
    write_trace(make_trace(), path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(raw)
    with pytest.raises(FileVersionError):
        read_trace(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta: meta["preset"].update(distance_m=3),
        lambda meta: meta.update(preset=[["name", "x"]]),
        lambda meta: meta.update(preset="open-space-3m"),
        lambda meta: meta["preset"].update(shielding_db=99),
        lambda meta: meta["preset"].pop("name"),
    ],
    ids=["unknown-field", "list", "string", "rejected-value", "no-name"],
)
def test_trace_with_malformed_preset_raises_file_format_error(tmp_path, edit):
    trace = make_trace(n=16)
    path = tmp_path / "t.emtr"
    write_trace(trace, path)
    raw = path.read_bytes()
    payload_end = _TRACE_HEADER.size + 4 * trace.samples.size
    meta = json.loads(raw[payload_end:])
    edit(meta)
    path.write_bytes(raw[:payload_end] + json.dumps(meta).encode())
    with pytest.raises(FileFormatError, match="t.emtr: not a channel preset"):
        read_trace(path)


def test_trace_metadata_must_be_an_object(tmp_path):
    trace = make_trace(n=16)
    path = tmp_path / "t.emtr"
    write_trace(trace, path)
    raw = path.read_bytes()
    payload_end = _TRACE_HEADER.size + 4 * trace.samples.size
    path.write_bytes(raw[:payload_end] + b"[1, 2]")
    with pytest.raises(FileFormatError, match="t.emtr"):
        read_trace(path)


def test_trace_sample_payload_at_fixed_offset(tmp_path):
    trace = make_trace(n=16)
    path = tmp_path / "t.emtr"
    write_trace(trace, path)
    raw = path.read_bytes()
    payload = np.frombuffer(raw[23 : 23 + 16 * 4], dtype="<f4")
    assert np.array_equal(payload, trace.samples)


# --- CSV import -----------------------------------------------------------


def test_import_csv_basic(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("0.0\n1.0\n0.0\n")
    trace = import_csv(path, sample_rate=1e6)
    assert trace.samples.tolist() == [0.0, 1.0, 0.0]
    assert trace.sample_rate == 1e6
    assert trace.ground_truth is None


def test_import_csv_skips_header(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("volts\n0.5\n-0.5\n")
    trace = import_csv(path, sample_rate=2e6)
    assert trace.samples.tolist() == [0.5, -0.5]


def test_import_csv_reports_line_number(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("1.0\n2.0\n3.0\n4.0\n5.0\n6.0\nabc\n")
    with pytest.raises(CsvParseError) as err:
        import_csv(path, sample_rate=1e6)
    assert err.value.line_number == 7
    assert "line 7" in str(err.value)


# --- reference files --------------------------------------------------------


def test_reference_roundtrip(tmp_path, refs):
    path = tmp_path / "refs.emrf"
    write_reference_set(refs, path)
    back = read_reference_set(path)
    assert len(back) == 70
    assert back.bit_rate == refs.bit_rate
    for key in refs.keys_in_order():
        assert np.array_equal(back[key].slots, refs[key].slots)


def test_reference_file_layout(tmp_path, refs):
    path = tmp_path / "refs.emrf"
    write_reference_set(refs, path)
    raw = path.read_bytes()
    assert raw[:4] == b"EMRF"
    assert int.from_bytes(raw[4:6], "little") == 1  # version
    assert int.from_bytes(raw[6:10], "little") == 12_000_000
    assert int.from_bytes(raw[10:12], "little") == 70


def test_reference_bad_magic(tmp_path, refs):
    path = tmp_path / "refs.emrf"
    write_reference_set(refs, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"EMTR"  # right family, wrong format
    path.write_bytes(raw)
    with pytest.raises(FileFormatError):
        read_reference_set(path)


def test_reference_truncation(tmp_path, refs):
    path = tmp_path / "refs.emrf"
    write_reference_set(refs, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:100])
    with pytest.raises(TruncatedFileError):
        read_reference_set(path)


# --- sweep reports -----------------------------------------------------------


def make_report():
    rows = [
        SweepRow("p1", -80.0, 4e-9, "a", 10, 10, 0.99, 0.1),
        SweepRow("p1", -80.0, 4e-9, "b", 10, 9, 0.95, 0.08),
        SweepRow("p2", -85.0, 4e-9, "a", 10, 5, 0.80, 0.02),
    ]
    return SweepReport(rows, config={"repeats": 10, "sweep": "preset"})


def test_report_accuracy_aggregates():
    report = make_report()
    acc = report.accuracy_by_preset()
    assert acc["p1"] == pytest.approx(19 / 20)
    assert acc["p2"] == pytest.approx(0.5)


def test_report_csv_roundtrip(tmp_path):
    report = make_report()
    path = tmp_path / "r.csv"
    write_report(report, path, fmt="csv")
    text = path.read_text()
    assert ",".join(REPORT_COLUMNS) in text
    back = read_report(path)
    assert back.rows == report.rows
    assert back.accuracy_by_preset() == report.accuracy_by_preset()


def test_report_json_matches_csv(tmp_path):
    report = make_report()
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    write_report(report, csv_path, fmt="csv")
    write_report(report, json_path, fmt="json")
    assert read_report(csv_path).rows == read_report(json_path).rows
    doc = json.loads(json_path.read_text())
    assert doc["accuracy_by_preset"]["p1"] == pytest.approx(0.95)


def test_empty_report_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_report(SweepReport([]), tmp_path / "r.csv")


def test_row_validation():
    with pytest.raises(ValueError):
        SweepRow("p", 0.0, 0.0, "a", repeats=5, correct=6, mean_score=1.0,
                 mean_margin=0.0)
