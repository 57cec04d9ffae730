import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from emanakey import (
    CsvParseError,
    EmanationTrace,
    FileFormatError,
    FileVersionError,
    KEYS,
    TruncatedFileError,
    build_keystroke_transaction,
    build_reference_set,
    edges_analytic,
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


def test_dataset_from_a_numpy_integer_seed_round_trips(tmp_path):
    from emanakey import synth_dataset

    keys = list(KEYS[:3])
    preset = get_preset("office-12m")
    traces = synth_dataset(keys, preset, repeats=2, master_seed=np.int64(5))
    back = []
    for i, trace in enumerate(traces):
        write_trace(trace, tmp_path / f"{i}.emtr")
        back.append(read_trace(tmp_path / f"{i}.emtr"))
    assert back == traces == synth_dataset(keys, preset, repeats=2, master_seed=5)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_file_with_a_non_finite_sample_is_format_error(tmp_path, bad):
    path = tmp_path / "t.emtr"
    write_trace(make_trace(n=16), path)
    raw = bytearray(path.read_bytes())
    raw[_TRACE_HEADER.size + 4 * 5 : _TRACE_HEADER.size + 4 * 6] = (
        np.array([bad], dtype="<f4").tobytes()
    )
    path.write_bytes(raw)
    with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: .*finite"):
        read_trace(path)


def test_trace_file_with_rate_zero_is_format_error(tmp_path):
    path = tmp_path / "t.emtr"
    write_trace(make_trace(n=16), path)
    raw = bytearray(path.read_bytes())
    raw[6:14] = (0).to_bytes(8, "little")
    path.write_bytes(raw)
    with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: sample rate"):
        read_trace(path)


# 1e6/3 would read back as 333,333 Hz, 0.4 as a rate of 0 that read_trace
# rejects, and 2**65 does not fit the header's u64.
@pytest.mark.parametrize("rate", [1e6 / 3, 0.4, 2.0**65])
def test_trace_rate_the_header_cannot_hold_is_rejected(tmp_path, rate):
    trace = replace(make_trace(n=16), sample_rate=rate)
    path = tmp_path / "t.emtr"
    with pytest.raises(ValueError, match=re.escape(repr(rate))):
        write_trace(trace, path)
    assert not path.exists()


def test_trace_rate_at_the_header_limits_round_trips(tmp_path):
    for rate in (1.0, 2.0**64 - 2.0**11):  # the largest float below 2**64
        trace = replace(make_trace(n=16), sample_rate=rate)
        write_trace(trace, tmp_path / "t.emtr")
        assert read_trace(tmp_path / "t.emtr") == trace


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


# One seeded trace per builtin preset: SHA-256 of its EMTR file.
EMTR_SHA256 = {
    "building-9.4m": "0f1bf42eb6a06815d4043103ec96cfd7297da2cac2f0f7457ad0a6abbda08a65",
    "identity": "b43fbbeeffa4cf4e4ff900cd8231ec9b8116c4ea5a1f57d9394ceee9bf88d0fe",
    "office-12m": "97afdc6f8a6289353724e18da3808d9f35f619b2e199a9db010ed967b4fd9112",
    "open-space-0.5m": "54c82305167b8cab1d34465c2d1f8dc360165c9eeedad935a9beac7ea0e1aeb3",
    "open-space-2.5m": "ad4eb6471578a7f3e116949cb7dad95632b171d9ec442ee3c0acfee0ef0e73bf",
    "open-space-3.8m": "98b39c7683d4d4f18e2485eb8280f14d22f0737c5f8901db0a01f237bda3d999",
    "open-space-3m": "15c6353143444229b36066b50743d3d248c19384b055f5219330b6d58dcb2a1b",
}


def test_trace_file_bytes_are_pinned(tmp_path):
    # The presets take turns, so a cached preset's metadata cannot leak
    # into the next preset's file.
    from emanakey import available_presets, synth_dataset

    assert sorted(EMTR_SHA256) == available_presets()
    for i, name in enumerate(available_presets()):
        (trace,) = synth_dataset([KEYS[i * 9]], get_preset(name), repeats=1, master_seed=21)
        path = tmp_path / f"{name}.emtr"
        write_trace(trace, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == EMTR_SHA256[name], name


def test_trace_metadata_is_the_sorted_json_of_its_fields(tmp_path):
    # Equal presets may serialize differently (1 against 1.0): each file
    # holds its own trace's preset.
    base = get_preset("office-12m")
    presets = [replace(base, gain_db=-75), replace(base, gain_db=-75.0), base, None]
    for i, preset in enumerate(presets + presets[::-1]):
        trace = replace(make_trace(n=8), preset=preset, repeat=i % 3 or None)
        path = tmp_path / "t.emtr"
        write_trace(trace, path)
        meta = {
            "ground_truth": trace.ground_truth.label,
            "preset": preset.to_dict() if preset else None,
            "seed": trace.seed,
            "repeat": trace.repeat,
        }
        raw = path.read_bytes()
        assert raw[_TRACE_HEADER.size + 8 * 4 :] == json.dumps(meta, sort_keys=True).encode()


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


@pytest.mark.parametrize("row", ["nan", "inf", "-Infinity", "1e39"])
def test_import_csv_non_finite_row_reports_line_number(tmp_path, row):
    # 1e39 is finite as a float64 but overflows the float32 sample.
    path = tmp_path / "w.csv"
    path.write_text(f"volts\n1.0\n2.0\n{row}\n3.0\n")
    with pytest.raises(CsvParseError, match=f"non-finite row '{row}' at line 4") as err:
        import_csv(path, sample_rate=1e6)
    assert err.value.line_number == 4


def test_import_csv_keeps_the_largest_float32(tmp_path):
    path = tmp_path / "w.csv"
    top = float(np.finfo(np.float32).max)
    path.write_text(f"{top!r}\n{-top!r}\n")
    assert import_csv(path, sample_rate=1e6).samples.tolist() == [top, -top]


@pytest.mark.parametrize("rate", [np.nan, 0.0])
def test_import_csv_rejects_a_sample_rate_that_is_not_finite_and_positive(tmp_path, rate):
    path = tmp_path / "w.csv"
    path.write_text("0.0\n1.0\n")
    with pytest.raises(ValueError, match="sample rate"):
        import_csv(path, sample_rate=rate)


# --- reference files --------------------------------------------------------


def test_reference_roundtrip(tmp_path, refs):
    path = tmp_path / "refs.emrf"
    write_reference_set(refs, path)
    back = read_reference_set(path)
    assert len(back) == 70
    assert back.bit_rate == refs.bit_rate == 12e6
    assert back.bit_width == refs.bit_width
    for key in refs.keys_in_order():
        assert np.array_equal(back[key].slots, refs[key].slots)


def test_reference_roundtrip_keeps_a_low_speed_time_base(tmp_path):
    # A read-back set takes its bit time from the file's rate alone.
    from emanakey.edges import ReferenceSet

    slow = ReferenceSet(entries={
        key: edges_analytic(replace(build_keystroke_transaction(key), bit_rate=1.5e6))
        for key in KEYS[:3]
    })
    path = tmp_path / "slow.emrf"
    write_reference_set(slow, path)
    back = read_reference_set(path)
    assert back.bit_rate == 1.5e6
    assert back.bit_width == slow.bit_width == 1 / 1.5e6
    assert back.entries == slow.entries


def rate_set(refs, bit_rate):
    # Three keys' references with a bit time of 1 / bit_rate.
    from emanakey.edges import ReferenceSet

    return ReferenceSet(entries={
        key: replace(refs[key], bit_width=1 / bit_rate) for key in KEYS[:3]
    })


def test_reference_rate_that_reads_back_exactly_round_trips(tmp_path, refs):
    # 12.03 Mb/s: a whole rate whose width 1 / rate is not a round number.
    rated = rate_set(refs, 12.03e6)
    path = tmp_path / "rated.emrf"
    write_reference_set(rated, path)
    back = read_reference_set(path)
    assert back.bit_width == rated.bit_width
    assert back.entries == rated.entries


@pytest.mark.parametrize("bit_rate", [12_000_001.2, 0.4, 2.0**33])
def test_reference_rate_the_header_cannot_hold_is_rejected(tmp_path, refs, bit_rate):
    # Not a whole rate, one that rounds to 0, and one past the u32.
    path = tmp_path / "rated.emrf"
    with pytest.raises(ValueError, match=r"b/s is not a whole rate in \[1, 2\*\*32\)"):
        write_reference_set(rate_set(refs, bit_rate), path)
    assert not path.exists()


@pytest.mark.parametrize("method", ["analytic", "pipeline"])
def test_reference_file_bytes_are_pinned(tmp_path, method):
    path = tmp_path / "refs.emrf"
    write_reference_set(build_reference_set(method), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "756694e1f4ee3c90fff0bf2e4d83b274152be36f5085e5c2248ae511631691be"
    )


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


_HEADER = ",".join(REPORT_COLUMNS)
_ROW = "p1,-80.0,4e-09,a,10,10,0.9,0.1"


@pytest.mark.parametrize(
    "name, text",
    [
        ("no-rows-key.json", '{"config": {}}'),
        ("missing-column.json", json.dumps({"rows": [{"preset": "p1", "key": "a"}]})),
        ("no-rows.json", '{"rows": []}'),
        ("wrong-header.csv", _HEADER.replace("key", "label") + "\n" + _ROW + "\n"),
        ("header-only.csv", _HEADER + "\n"),
        ("empty.csv", ""),
    ],
)
def test_malformed_report_is_format_error(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FileFormatError, match=re.escape(str(path))):
        read_report(path)


def test_empty_report_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_report(SweepReport([]), tmp_path / "r.csv")


def test_row_validation():
    with pytest.raises(ValueError):
        SweepRow("p", 0.0, 0.0, "a", repeats=5, correct=6, mean_score=1.0,
                 mean_margin=0.0)
