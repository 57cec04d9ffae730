import json
import warnings

import numpy as np
import pytest

from emanakey import read_report, read_trace
from emanakey.cli import main


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_refs_and_refusal(tmp_path, capsys):
    out = tmp_path / "refs.emrf"
    rc, stdout, _ = run(["gen-refs", "--out", str(out)], capsys)
    assert rc == 0
    assert out.exists()
    assert "70 references" in stdout

    rc, _, stderr = run(["gen-refs", "--out", str(out)], capsys)
    assert rc == 3
    assert "--force" in stderr

    rc, _, _ = run(["gen-refs", "--out", str(out), "--force"], capsys)
    assert rc == 0


def test_synth_detect_roundtrip(tmp_path, capsys):
    refs = tmp_path / "refs.emrf"
    assert run(["gen-refs", "--out", str(refs)], capsys)[0] == 0

    traces = tmp_path / "traces"
    rc, stdout, _ = run(
        ["synth", "--keys", "a,Q,ENTER", "--preset", "identity",
         "--repeats", "2", "--out-dir", str(traces)],
        capsys,
    )
    assert rc == 0
    files = sorted(traces.glob("*.emtr"))
    assert len(files) == 6

    rc, stdout, _ = run(
        ["detect", "--trace-dir", str(traces), "--refs", str(refs)], capsys
    )
    assert rc == 0
    assert "summary: 6/6 correct" in stdout


def test_detect_single_identity_trace(tmp_path, capsys):
    traces = tmp_path / "t"
    run(["synth", "--keys", "ENTER", "--preset", "identity", "--repeats", "1",
         "--out-dir", str(traces)], capsys)
    trace_file = next(traces.glob("*.emtr"))
    rc, stdout, _ = run(["detect", "--trace", str(trace_file)], capsys)
    assert rc == 0
    assert "ENTER" in stdout
    assert "score=1.0000" in stdout


def test_detect_no_signal_exit_code(tmp_path, capsys):
    import emanakey

    quiet = emanakey.EmanationTrace(
        samples=np.zeros(4000, dtype=np.float32), sample_rate=250e6
    )
    path = tmp_path / "quiet.emtr"
    emanakey.write_trace(quiet, path)
    rc, stdout, _ = run(["detect", "--trace", str(path)], capsys)
    assert rc == 4
    assert "NO-SIGNAL" in stdout


def test_detect_zero_sample_trace_exits_no_signal(tmp_path, capsys):
    import emanakey

    empty = emanakey.EmanationTrace(
        samples=np.zeros(0, dtype=np.float32), sample_rate=250e6
    )
    path = tmp_path / "empty.emtr"
    emanakey.write_trace(empty, path)
    rc, stdout, stderr = run(["detect", "--trace", str(path)], capsys)
    assert rc == 4
    assert "NO-SIGNAL" in stdout
    assert "Traceback" not in stderr


def test_synth_unknown_preset_lists_options(tmp_path, capsys):
    rc, _, stderr = run(
        ["synth", "--keys", "a", "--preset", "mars", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 3
    assert "open-space-3.8m" in stderr


def test_synth_seed_reproducible(tmp_path, capsys):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    for d in (d1, d2):
        rc, _, _ = run(
            ["synth", "--keys", "a", "--preset", "open-space-3m",
             "--repeats", "1", "--seed", "99", "--out-dir", str(d)],
            capsys,
        )
        assert rc == 0
    t1 = read_trace(next(d1.glob("*.emtr")))
    t2 = read_trace(next(d2.glob("*.emtr")))
    assert np.array_equal(t1.samples, t2.samples)


def test_seed_flag_selects_the_noise_stream(tmp_path, capsys):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    for seed, d in (("1234", d1), ("5678", d2)):
        run(["synth", "--keys", "a", "--preset", "open-space-3m", "--repeats", "1",
             "--seed", seed, "--out-dir", str(d)], capsys)
    t1 = read_trace(next(d1.glob("*.emtr")))
    t2 = read_trace(next(d2.glob("*.emtr")))
    assert (t1.seed, t2.seed) == (1234, 5678)
    assert not np.array_equal(t1.samples, t2.samples)


def test_show_frame_golden(capsys):
    rc, stdout, _ = run(["show-frame", "--key", "a"], capsys)
    assert rc == 0
    # golden lines frozen from the first verified build
    assert "key 'a' (index 10)" in stdout
    assert "hid report: 00 00 04 00 00 00 00 00" in stdout
    assert "IN: 32 bits (0 stuffed) crc=0x000B" in stdout
    assert "DATA0: 96 bits (0 stuffed) crc=0x70BE" in stdout
    assert "ACK: 16 bits (0 stuffed)" in stdout
    assert "edge series: 96 edges in 120 slots" in stdout


def test_show_frame_hex_golden(capsys):
    rc, stdout, _ = run(["show-frame", "--key", "a", "--format", "hex"], capsys)
    assert rc == 0
    hex_lines = [l.strip() for l in stdout.splitlines() if l.startswith("    ")]
    assert hex_lines == ["80 69 81 58", "80 c3 00 00 04 00 00 00 00 00 be 70", "80 d2"]


def test_show_frame_unknown_key(capsys):
    rc, _, stderr = run(["show-frame", "--key", "ESC"], capsys)
    assert rc == 3
    assert "SHIFT" in stderr  # error lists the valid labels


def test_show_frame_formats_consistent(capsys):
    rc, bits_out, _ = run(["show-frame", "--key", "7", "--format", "bits"], capsys)
    assert rc == 0
    rc, sym_out, _ = run(["show-frame", "--key", "7", "--format", "symbols"], capsys)
    assert rc == 0
    bit_lines = [l.strip() for l in bits_out.splitlines() if set(l.strip()) <= {"0", "1"} and l.strip()]
    sym_lines = [l.strip() for l in sym_out.splitlines() if set(l.strip()) <= {"J", "K", "0"} and l.strip()]
    # symbols include the 3-slot end-of-packet tail beyond the stuffed bits
    assert [len(s) for s in sym_lines] == [len(b) + 3 for b in bit_lines]


def test_gen_refs_pipeline_method_identical_file(tmp_path, capsys):
    a = tmp_path / "analytic.emrf"
    b = tmp_path / "pipeline.emrf"
    assert run(["gen-refs", "--method", "analytic", "--out", str(a)], capsys)[0] == 0
    assert run(["gen-refs", "--method", "pipeline", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_noise_grid(tmp_path, capsys):
    out = tmp_path / "noise.json"
    rc, stdout, _ = run(
        ["sweep", "--noise-grid", "1e-9:8e-9:2", "--repeats", "1",
         "--out", str(out), "--format", "json"],
        capsys,
    )
    assert rc == 0
    report = read_report(out)
    acc = report.accuracy_by_preset()
    assert len(acc) == 2
    low, high = sorted(acc.items(), key=lambda kv: float(kv[0].split("-", 1)[1]))
    assert low[1] >= high[1] - 0.02  # more noise never helps


def test_sweep_glitch_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc, stdout, _ = run(
        ["sweep", "--glitch-grid", "0,4", "--repeats", "1", "--out", str(out)],
        capsys,
    )
    assert rc == 0
    report = read_report(out)
    acc = report.accuracy_by_preset()
    assert set(acc) == {"glitch-0", "glitch-4"}
    assert acc["glitch-0"] >= acc["glitch-4"] - 0.02


def test_sweep_glitch_grid_follows_seed(tmp_path, capsys):
    def sweep_csv(name, seed):
        out = tmp_path / name
        rc, _, _ = run(
            ["sweep", "--glitch-grid", "1", "--repeats", "1", "--seed", seed,
             "--out", str(out)],
            capsys,
        )
        assert rc == 0
        return out

    first, again = sweep_csv("a.csv", "7"), sweep_csv("b.csv", "7")
    other = sweep_csv("c.csv", "8")
    assert first.read_bytes() == again.read_bytes()
    assert read_report(first).config["master_seed"] == "7"
    assert read_report(first).rows != read_report(other).rows


def test_bench_produces_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc, stdout, _ = run(["bench", "--iters", "20", "--out", str(out)], capsys)
    assert rc == 0
    assert "polling budget" in stdout
    stats = json.loads(out.read_text())
    assert stats["iterations"] == 20
    assert stats["mean_ms"] > 0


def test_detect_dir_equals_per_file_detect(tmp_path, capsys, monkeypatch):
    import emanakey
    from emanakey import cli

    traces = tmp_path / "traces"
    rc, _, _ = run(
        ["synth", "--keys", "a,Q,ENTER,5", "--preset", "open-space-3m",
         "--repeats", "2", "--seed", "31", "--out-dir", str(traces)],
        capsys,
    )
    assert rc == 0
    quiet = emanakey.EmanationTrace(
        samples=np.zeros(3000, dtype=np.float32), sample_rate=250e6
    )
    emanakey.write_trace(quiet, traces / "001_quiet.emtr")  # between good files
    files = sorted(traces.glob("*.emtr"))

    per_file = [run(["detect", "--trace", str(f)], capsys) for f in files]
    batches = []
    detect_batch = cli.detect_batch

    def recording_detect_batch(batch, *args):
        batches.append(len(batch))
        return detect_batch(batch, *args)

    monkeypatch.setattr(cli, "detect_batch", recording_detect_batch)
    rc, stdout, _ = run(["detect", "--trace-dir", str(traces)], capsys)

    assert batches == [len(files)]
    lines = stdout.splitlines()
    assert lines[:-1] == [out.strip() for _, out, _ in per_file]
    assert lines[-1].startswith("summary: ")
    assert "001_quiet.emtr: NO-SIGNAL" in stdout
    assert rc == max(code for code, _, _ in per_file) == 4


def test_synth_files_and_detect_dir_lines_do_not_depend_on_blocks(
    tmp_path, capsys, monkeypatch
):
    import emanakey
    from emanakey import cli

    traces = tmp_path / "traces"
    rc, _, _ = run(
        ["synth", "--keys", "a,Q,ENTER,5", "--preset", "office-12m",
         "--repeats", "2", "--seed", "31", "--out-dir", str(traces)],
        capsys,
    )
    assert rc == 0
    # synth writes each trace as it is made, under its (key, repeat) name.
    keys = [emanakey.key_by_label(label) for label in ("a", "Q", "ENTER", "5")]
    made = emanakey.synth_dataset(
        keys, emanakey.get_preset("office-12m"), repeats=2, master_seed=31
    )
    assert {f.name: read_trace(f) for f in traces.glob("*.emtr")} == {
        f"{i % 4:03d}_{t.ground_truth.label}_r{i // 4}.emtr": t for i, t in enumerate(made)
    }

    whole = run(["detect", "--trace-dir", str(traces)], capsys)
    batches = []
    detect_batch = cli.detect_batch

    def recording_detect_batch(batch, *args):
        batches.append(len(batch))
        return detect_batch(batch, *args)

    monkeypatch.setattr(cli, "detect_batch", recording_detect_batch)
    monkeypatch.setattr(cli, "_BLOCK_TRACES", 3)
    assert run(["detect", "--trace-dir", str(traces)], capsys) == whole
    assert batches == [3, 3, 2]
    assert "summary: " in whole[1]


@pytest.mark.parametrize(
    "flag, spec",
    [
        ("--glitch-grid", "0,x"),
        ("--glitch-grid", "0,-1"),
        ("--noise-grid", "1e-9:2e-9"),
        ("--noise-grid", "1e-9:2e-9:0"),
        ("--noise-grid", "0:2e-9:3"),
        ("--noise-grid", "1e-9:2:3"),
    ],
)
def test_sweep_bad_grid_is_a_usage_error(tmp_path, capsys, flag, spec):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", flag, spec, "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    stderr = capsys.readouterr().err
    assert flag in stderr and repr(spec) in stderr


@pytest.mark.parametrize(
    "kind, text",
    [
        ("config", "{"),
        ("config", "[]"),
        ("config", '{"min_peak": 3}'),
        ("config", '{"filter_taps": 100}'),
        ("config", '{"band_low_hz": "low"}'),
        ("config", '{"anchor_candidates": 0}'),
        ("config", '{"offset_search_slots": -1}'),
        ("config", '{"min_peaks": "12"}'),
        ("config", '{"bit_rate_bps": 0}'),
        ("config", '{"proximity_window_bits": -1}'),
        ("config", '{"min_peak_separation_bits": 0}'),
        ("preset", "{"),
        ("preset", '[{"name": "x"}]'),
        ("preset", '{"name": "x", "distance_m": 3}'),
        ("preset", '{"name": "x", "shielding_db": 99}'),
        ("preset", '{"name": "x", "noise_density": -4e-9}'),
        ("preset", '{"name": "x", "interferers": [[95e6, 0, -1e-12]]}'),
        ("preset", '{"name": "x", "interferers": [[95e6, -1e6, 1e-12]]}'),
        ("preset", '{"name": "x", "glitch_rate": 50, "glitch_amp": [4.0, 2.5]}'),
        ("preset", '{"name": "x", "gain_db": "loud"}'),
        ("preset", '{"name": "x", "gain_db": NaN}'),
        ("preset", '{"name": "x", "gain_db": 1e400}'),
        ("preset", '{"name": "x", "glitch_rate": Infinity}'),
        ("preset", '{"name": "x", "glitch_rate": NaN}'),
        ("preset", '{"name": "x", "seed": "abc"}'),
        ("preset", '{"name": "x", "seed": -1}'),
        ("preset", '{"name": 7}'),
    ],
    ids=[
        "config-json", "config-list", "config-unknown-key", "config-rejected",
        "config-type", "config-no-anchor", "config-negative-search",
        "config-int-as-string", "config-zero-bit-rate",
        "config-negative-proximity", "config-zero-peak-separation", "preset-json",
        "preset-list", "preset-unknown-field", "preset-rejected",
        "preset-negative-noise", "preset-negative-power",
        "preset-negative-bandwidth", "preset-inverted-glitch-amp",
        "preset-gain-string", "preset-gain-nan", "preset-gain-overflow",
        "preset-glitch-rate-inf", "preset-glitch-rate-nan", "preset-seed-string",
        "preset-seed-negative", "preset-name-number",
    ],
)
def test_malformed_config_or_preset_is_a_data_error(tmp_path, capsys, kind, text):
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    if kind == "config":
        argv = ["detect", "--trace", str(tmp_path / "a.emtr"), "--config", str(path)]
    else:
        argv = ["synth", "--keys", "a", "--preset", str(path),
                "--out-dir", str(tmp_path / "out")]
    rc, _, stderr = run(argv, capsys)
    assert rc == 3
    assert stderr.startswith("error: ") and str(path) in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "field, text",
    [
        ("gain_db", '{"name": "x", "gain_db": 1e300}'),
        ("glitch_rate", '{"name": "x", "glitch_rate": 1e300}'),
        ("noise_density", '{"name": "x", "noise_density": 1e300}'),
        ("interferer power", '{"name": "x", "interferers": [[95e6, 0, 1e300]]}'),
        ("glitch_amp", '{"name": "x", "glitch_rate": 5, "glitch_amp": [2.5, 1e300]}'),
    ],
    ids=["gain", "glitch-rate", "noise-density", "interferer-power", "glitch-amp"],
)
def test_preset_too_large_to_synthesize_is_a_data_error(tmp_path, capsys, field, text):
    path = tmp_path / "preset.json"
    path.write_text(text)
    argv = ["synth", "--keys", "a", "--preset", str(path), "--out-dir", str(tmp_path / "out")]
    rc, _, stderr = run(argv, capsys)
    assert rc == 3
    assert stderr.startswith("error: ") and str(path) in stderr
    assert f"{field} must be <=" in stderr


@pytest.mark.parametrize("search, code", [(0, 0), (121, 3), (100_000, 3)])
def test_detect_offset_search_must_stay_below_the_slot_width(tmp_path, capsys, search, code):
    traces = tmp_path / "t"
    run(["synth", "--keys", "a", "--preset", "identity", "--repeats", "1",
         "--out-dir", str(traces)], capsys)
    config = tmp_path / "detector.json"
    config.write_text(json.dumps({"offset_search_slots": search}))
    rc, stdout, stderr = run(
        ["detect", "--trace-dir", str(traces), "--config", str(config)], capsys
    )
    assert rc == code
    if code:
        assert stderr.startswith("error: ") and "offset_search_slots" in stderr
        assert f"is {search}; it must be below the references' slot width, 121" in stderr
    else:
        assert "a score=1.0000" in stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--keys", "a", "--preset", "identity", "--repeats", "0"],
        ["synth", "--keys", "a", "--preset", "identity", "--repeats", "-2"],
        ["sweep", "--glitch-grid", "0", "--repeats", "0"],
        ["sweep", "--preset-grid", "identity", "--repeats", "-1"],
        ["bench", "--iters", "0"],
        ["bench", "--iters", "-5"],
        ["synth", "--keys", "a", "--preset", "identity", "--seed", "-1"],
        ["sweep", "--glitch-grid", "0", "--seed", "-1"],
    ],
    ids=["synth-0", "synth-neg", "sweep-0", "sweep-neg", "bench-0", "bench-neg",
         "synth-seed-neg", "sweep-seed-neg"],
)
def test_count_below_one_is_a_usage_error(tmp_path, capsys, argv):
    out = ["--out-dir", str(tmp_path / "t")] if argv[0] == "synth" else []
    out += ["--out", str(tmp_path / "r.csv")] if argv[0] == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        main(argv + out)
    assert exc.value.code == 2
    stderr = capsys.readouterr().err
    flag, value = argv[-2:]
    assert flag in stderr and repr(value) in stderr
    assert "Traceback" not in stderr


# 1 and 3.6e7 are finite and positive, but the detector's 18 MHz band
# edge needs more than 36 MS/s.
@pytest.mark.parametrize("rate", ["0", "-5", "inf", "nan", "1", "3.6e7"])
def test_bad_sample_rate_is_a_usage_error(tmp_path, capsys, rate):
    out_dir = tmp_path / "t"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--keys", "a", "--preset", "identity",
              "--sample-rate", rate, "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    stderr = capsys.readouterr().err
    assert "--sample-rate" in stderr and repr(rate) in stderr
    assert "Traceback" not in stderr
    assert not list(tmp_path.rglob("*.emtr"))


# 1e300 would need a window too large to allocate; 1.1e10 is just past the
# limit the message names.
@pytest.mark.parametrize("rate", ["1e300", "1.1e10"])
def test_sample_rate_above_the_limit_is_a_usage_error(tmp_path, capsys, rate):
    from emanakey.cli import MAX_SAMPLE_RATE

    with pytest.raises(SystemExit) as exc:
        main(["synth", "--keys", "a", "--preset", "identity",
              "--sample-rate", rate, "--out-dir", str(tmp_path / "t")])
    assert exc.value.code == 2
    stderr = capsys.readouterr().err
    assert f"at most {MAX_SAMPLE_RATE:g} Hz" in stderr and repr(rate) in stderr
    assert "Traceback" not in stderr
    assert not list(tmp_path.rglob("*.emtr"))


def test_sample_rate_in_fractional_hertz_is_a_usage_error(tmp_path, capsys):
    # A trace file stores whole hertz; this rate would be written as 40 MHz.
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--keys", "a", "--preset", "identity",
              "--sample-rate", "40000000.5", "--out-dir", str(tmp_path / "t")])
    assert exc.value.code == 2
    stderr = capsys.readouterr().err
    assert "whole hertz" in stderr and "'40000000.5'" in stderr
    assert not list(tmp_path.rglob("*.emtr"))


def test_sample_rate_at_the_limit_synthesizes(tmp_path, capsys):
    from emanakey.cli import MAX_SAMPLE_RATE

    rc, stdout, _ = run(["synth", "--keys", "a", "--preset", "identity", "--repeats", "1",
                         "--sample-rate", repr(MAX_SAMPLE_RATE),
                         "--out-dir", str(tmp_path / "t")], capsys)
    assert rc == 0 and "wrote 1 traces" in stdout


def test_trace_with_malformed_preset_is_a_data_error(tmp_path, capsys):
    import emanakey
    from emanakey.traceio import _TRACE_HEADER

    trace = emanakey.synth_dataset(
        [emanakey.key_by_label("a")], emanakey.get_preset("identity"), master_seed=1
    )[0]
    path = tmp_path / "a.emtr"
    emanakey.write_trace(trace, path)
    raw = path.read_bytes()
    payload_end = _TRACE_HEADER.size + 4 * trace.samples.size
    meta = json.loads(raw[payload_end:])
    meta["preset"]["distance_m"] = 3
    path.write_bytes(raw[:payload_end] + json.dumps(meta).encode())
    rc, stdout, stderr = run(["detect", "--trace", str(path)], capsys)
    assert rc == 3
    assert stderr.startswith("error: ") and str(path) in stderr
    assert "Traceback" not in stderr and not stdout


@pytest.mark.parametrize("case", ["nan-sample", "rate-zero"])
def test_unreadable_trace_samples_or_rate_are_a_data_error(tmp_path, capsys, case):
    import emanakey
    from emanakey.traceio import _TRACE_HEADER

    trace = emanakey.EmanationTrace(samples=np.ones(64, dtype=np.float32), sample_rate=250e6)
    path = tmp_path / "a.emtr"
    emanakey.write_trace(trace, path)
    raw = bytearray(path.read_bytes())
    if case == "nan-sample":
        raw[_TRACE_HEADER.size : _TRACE_HEADER.size + 4] = np.array([np.nan], "<f4").tobytes()
    else:
        raw[6:14] = (0).to_bytes(8, "little")  # the header's sample rate
    path.write_bytes(raw)
    rc, stdout, stderr = run(["detect", "--trace", str(path)], capsys)
    assert rc == 3
    assert stderr.startswith("error: ") and str(path) in stderr
    assert "Traceback" not in stderr and not stdout


def _emrf(bit_rate, entries):
    """EMRF bytes for (key index, slots) entries, laid out as the writer does."""
    from emanakey.traceio import _REF_ENTRY, _REF_HEADER

    raw = _REF_HEADER.pack(b"EMRF", 1, bit_rate, len(entries))
    for index, slots in entries:
        raw += _REF_ENTRY.pack(index, len(slots)) + np.packbits(slots).tobytes()
    return raw


@pytest.mark.parametrize(
    "case", ["zero-bit-rate", "no-entries", "one-entry", "key-twice", "no-slots"]
)
def test_malformed_reference_file_is_a_data_error(tmp_path, capsys, refs, case):
    full = [(k.index, refs[k].slots) for k in refs.keys_in_order()]
    bit_rate, entries = 12_000_000, full
    if case == "zero-bit-rate":
        bit_rate = 0
    elif case == "no-entries":
        entries = []
    elif case == "one-entry":
        entries = full[:1]
    elif case == "key-twice":
        entries = full + [(full[0][0], full[1][1])]
    else:
        entries = full[:5] + [(full[5][0], np.zeros(0, dtype=np.uint8))] + full[6:]
    path = tmp_path / "refs.emrf"
    path.write_bytes(_emrf(bit_rate, entries))
    traces = tmp_path / "t"
    run(["synth", "--keys", "a", "--preset", "identity", "--repeats", "1",
         "--out-dir", str(traces)], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, stdout, stderr = run(
            ["detect", "--trace-dir", str(traces), "--refs", str(path)], capsys
        )
    assert rc == 3
    assert stderr.startswith("error: ") and str(path) in stderr
    assert not stdout
