import math
from dataclasses import replace

import numpy as np
import pytest

from emanakey import (
    DegenerateTraceError,
    DetectorConfig,
    NoSignalError,
    SampleRateError,
    apply_channel,
    bandpass,
    build_keystroke_transaction,
    detect,
    detect_batch,
    form_edge_series,
    available_presets,
    get_preset,
    inject_glitch,
    key_by_label,
    match,
    normalize,
    radiate,
    threshold_and_peaks,
)
from emanakey.channel import EmanationTrace, synth_dataset
from emanakey.detector import (
    _CHUNK_ROWS,
    DEFAULT_CONFIG,
    _band_envelope,
    _percentile_rows,
    amplitude_envelope,
)
from emanakey.edges import EdgeSeries
from emanakey.keys import KEYS

from oracle import agreement_score_oracle, detect_oracle

FS = 250e6
CFG = DEFAULT_CONFIG


def tone(freq, n=8192, fs=FS):
    return np.sin(2 * np.pi * freq * np.arange(n) / fs)


def identity_trace(label="a"):
    clean = radiate(build_keystroke_transaction(key_by_label(label)))
    return apply_channel(clean, get_preset("identity"), FS)


# --- config ---------------------------------------------------------------


def test_config_defaults_are_operating_values():
    assert CFG.band_low == 10e6
    assert CFG.band_high == 18e6
    assert CFG.amplitude == 3.3
    assert CFG.skip_fraction == 0.01
    assert CFG.floor == pytest.approx(3.3 / 2)
    assert CFG.min_peak_separation == pytest.approx(2 / 3)
    assert CFG.proximity_window == pytest.approx(1 / 3)
    assert CFG.offset_search == 2


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(band_low=20e6, band_high=18e6)
    with pytest.raises(ValueError):
        DetectorConfig(skip_fraction=0.6)
    with pytest.raises(ValueError):
        DetectorConfig(filter_taps=100)
    for bad in (
        {"anchor_candidates": 0}, {"offset_search": -1}, {"min_peaks": -1},
        {"filter_taps": -1}, {"bit_rate": 0.0}, {"amplitude": -3.3},
        {"band_low": 0.0}, {"zero_floor": 0.0}, {"proximity_window": math.nan},
        {"band_high": math.inf},
    ):
        with pytest.raises(ValueError):
            DetectorConfig(**bad)
    for bad in ({"min_peaks": "12"}, {"offset_search": 2.0}, {"filter_taps": True},
                {"amplitude": "3.3"}):
        with pytest.raises(TypeError):
            DetectorConfig(**bad)


def test_config_file_roundtrip(tmp_path):
    cfg = DetectorConfig(offset_search=3, zero_floor=1.0)
    path = tmp_path / "detector.json"
    cfg.to_file(path)
    assert DetectorConfig.from_file(path) == cfg


def test_config_file_missing_keys_take_defaults(tmp_path):
    path = tmp_path / "detector.json"
    path.write_text('{"min_peaks": 12}\n')
    assert DetectorConfig.from_file(path) == DetectorConfig(min_peaks=12)


def test_config_file_bytes(tmp_path):
    cfg = DetectorConfig(
        band_low=9e6, zero_floor=1.5, offset_search=3, anchor_candidates=4,
        min_peaks=12, filter_taps=301,
    )
    path = tmp_path / "detector.json"
    cfg.to_file(path)
    assert path.read_text() == (
        '{\n  "band_low_hz": 9000000.0,\n  "band_high_hz": 18000000.0,\n'
        '  "amplitude_v": 3.3,\n  "skip_fraction": 0.01,\n  "zero_floor_v": 1.5,\n'
        '  "min_peak_separation_bits": 0.6666666666666666,\n'
        '  "proximity_window_bits": 0.3333333333333333,\n'
        '  "offset_search_slots": 3,\n  "anchor_candidates": 4,\n'
        '  "bit_rate_bps": 12000000.0,\n  "filter_taps": 301,\n  "min_peaks": 12\n}\n'
    )


# --- bandpass -------------------------------------------------------------


def test_bandpass_passes_center_tone():
    out = bandpass(tone(14e6), FS)
    gain_db = 20 * np.log10(np.abs(out[2000:-2000]).max())
    assert abs(gain_db) < 1.0


def test_bandpass_rejects_fm_band_tone():
    out = bandpass(tone(100e6), FS)
    assert 20 * np.log10(np.abs(out[2000:-2000]).max() + 1e-300) < -40.0


def test_bandpass_removes_fm_interference_scenario():
    x = tone(14e6) + 5.0 * tone(95.5e6) + 3.0 * tone(104e6)
    out = bandpass(x, FS)
    spec = np.abs(np.fft.rfft(out))
    freqs = np.fft.rfftfreq(out.size, 1 / FS)
    fm = spec[(freqs > 88e6) & (freqs < 108e6)].max()
    band = spec[(freqs > 13e6) & (freqs < 15e6)].max()
    assert fm < band * 10 ** (-40 / 20)


def test_bandpass_requires_adequate_rate():
    with pytest.raises(SampleRateError):
        bandpass(tone(5e6, fs=30e6), 30e6)


def test_fused_envelope_matches_composition():
    trace = identity_trace("g")
    fused = _band_envelope([trace.samples], FS, CFG)[0][0]
    composed = amplitude_envelope(bandpass(trace.samples, FS, CFG))
    peak = composed.max()
    assert np.abs(fused[400:-400] - composed[400:-400]).max() < 1e-3 * peak


# --- normalize ------------------------------------------------------------


def test_normalize_scale_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=4000)
    a = normalize(x)
    b = normalize(123.456 * x)
    assert np.allclose(a, b, rtol=1e-9)


def test_normalize_constant_trace():
    out = normalize(np.ones(1000))
    assert np.allclose(out, 3.3)


def test_normalize_skips_lone_spike():
    x = np.ones(1000)
    x[500] = 1000.0  # single huge glitch atop a flat signal
    out = normalize(x)
    assert out[499] == pytest.approx(3.3)  # signal scaled by its own level
    assert out[500] == pytest.approx(3.3)  # spike clipped to A
    assert np.abs(out).max() <= 3.3 + 1e-12


def test_normalize_rejects_all_zero():
    with pytest.raises(DegenerateTraceError):
        normalize(np.zeros(100))


# Percentiles whose virtual index (n - 1) * q / 100 falls on a sample
# (gamma = 0), below the midpoint between two (gamma < 0.5) and at or
# above it (gamma >= 0.5, where numpy's lerp counts from the upper one).
PERCENTILES = (0.0, 1.0, 25.0, 50.0, 75.0, 98.0, 99.0, 99.5, 100.0, 100.0 * (1 - 0.01))


def _gamma(n, q):
    virtual = (n - 1) * (q / 100)
    return virtual - math.floor(virtual)


def _percentile_rows_inputs(n, rows):
    rng = np.random.default_rng(n * 100 + rows)
    x = np.abs(rng.normal(size=(rows, n)))
    if rows > 1:
        x[1] = 0.0
        x[2] = 2.5
        x[3] = np.round(x[3], 1)  # many equal values
        x[4] = -x[4]
    return [x, np.zeros((rows, n)), np.full((rows, n), 1.7)]


@pytest.mark.parametrize("rows", [1, 32])
@pytest.mark.parametrize("n", [1, 2, 3000, 3021])
def test_percentile_rows_is_numpy_percentile_bit_for_bit(n, rows):
    gammas = {_gamma(n, q) for q in PERCENTILES}
    if n > 1:  # a single sample has no neighbour to interpolate
        assert 0.0 in gammas
        assert any(0 < g < 0.5 for g in gammas) and any(g >= 0.5 for g in gammas)
    for x in _percentile_rows_inputs(n, rows):
        for q in PERCENTILES:
            want = np.percentile(x, q, axis=-1, keepdims=True)
            got = _percentile_rows(x.copy(), q)
            assert got.shape == want.shape == (rows, 1)
            assert got.tobytes() == want.tobytes(), (n, rows, q)


# --- threshold_and_peaks ---------------------------------------------------


def test_peaks_respect_min_separation():
    n = 4000
    x = np.zeros(n)
    # two candidate bumps half a bit apart; only the larger survives
    bit_samples = FS / 12e6
    i0 = 2000
    i1 = i0 + int(0.5 * bit_samples)
    x[i0 - 1 : i0 + 2] = [2.0, 3.0, 2.0]
    x[i1 - 1 : i1 + 2] = [1.8, 2.6, 1.8]
    times = threshold_and_peaks(x, FS)
    assert times.size == 1
    assert times[0] == pytest.approx(i0 / FS)


def test_peaks_clean_two_edges():
    n = 4000
    x = np.zeros(n)
    bit_samples = int(FS / 12e6)
    for i in (1000, 1000 + 2 * bit_samples):
        x[i - 1 : i + 2] = [2.0, 3.0, 2.0]
    times = threshold_and_peaks(x, FS)
    assert times.size == 2
    assert times[0] == pytest.approx(1000 / FS, abs=0.6 / FS)


def test_peaks_below_floor_ignored():
    x = np.zeros(2000)
    x[1000] = 1.0  # below A/2
    with pytest.raises(NoSignalError):
        threshold_and_peaks(x, FS)


def test_peak_count_matches_reference_on_clean_trace(refs):
    trace = identity_trace("a")
    envelope = _band_envelope([trace.samples], FS, CFG)[0][0]
    peaks = threshold_and_peaks(normalize(envelope), FS)
    assert peaks.size == refs[key_by_label("a")].ones


def test_no_peak_pair_violates_separation_on_detection(refs):
    preset = get_preset("open-space-3.8m")
    clean = radiate(build_keystroke_transaction(key_by_label("w")))
    trace = apply_channel(clean, replace(preset, seed=42), FS)
    envelope = _band_envelope([trace.samples], FS, CFG)[0][0]
    peaks = threshold_and_peaks(normalize(envelope), FS)
    min_gap = np.diff(peaks).min()
    assert min_gap >= (2 / 3) * (1 / 12e6) * 0.999


# --- form_edge_series -------------------------------------------------------


def make_ref(n=20):
    slots = np.zeros(n, dtype=np.uint8)
    slots[[0, 3, 7, 12]] = 1
    return EdgeSeries(slots=slots, bit_width=1 / 12e6)


def test_form_series_exact_centers():
    ref = make_ref()
    bit = ref.bit_width
    peaks = np.array([0.0, 3 * bit, 7 * bit, 12 * bit]) + 5e-6
    series = form_edge_series(peaks, ref)
    assert np.array_equal(series.slots, ref.slots)


def test_form_series_tolerates_jitter():
    ref = make_ref()
    bit = ref.bit_width
    rng = np.random.default_rng(8)
    jitter = rng.uniform(-0.3 * bit, 0.3 * bit, size=3)
    peaks = np.concatenate(([0.0], np.array([3, 7, 12]) * bit + jitter)) + 5e-6
    series = form_edge_series(peaks, ref)
    assert np.array_equal(series.slots, ref.slots)


def test_form_series_spurious_peak_adds_one():
    ref = make_ref()
    bit = ref.bit_width
    peaks = np.array([0.0, 3 * bit, 5 * bit, 7 * bit, 12 * bit]) + 5e-6
    series = form_edge_series(peaks, ref)
    assert series.slots[5] == 1
    assert int(series.slots.sum()) == ref.ones + 1


def test_form_series_peak_outside_proximity_ignored():
    ref = make_ref()
    bit = ref.bit_width
    peaks = np.array([0.0, 3 * bit, 8.5 * bit, 12 * bit]) + 5e-6
    series = form_edge_series(peaks, ref)
    assert series.slots[8] == 0
    assert series.slots[9] == 0


def test_form_series_needs_peaks():
    with pytest.raises(NoSignalError):
        form_edge_series(np.array([]), make_ref())


# --- match ------------------------------------------------------------------


def test_match_self_is_perfect(refs):
    target = key_by_label("Q")
    result = match(refs[target], refs)
    assert result.key == target
    assert result.score == 1.0
    assert result.margin > 0


def test_match_survives_single_flip(refs):
    target = key_by_label("Q")
    flipped = refs[target].slots.copy()
    flipped[40] ^= 1
    result = match(
        EdgeSeries(slots=flipped, bit_width=refs[target].bit_width), refs
    )
    assert result.key == target


def test_match_all_zero_series_agrees_with_oracle(refs):
    width = refs.max_slots()
    zero = EdgeSeries(slots=np.zeros(width, dtype=np.uint8), bit_width=1 / 12e6)
    result = match(zero, refs)
    # independent scoring sweep over every reference
    best_key, best_score = None, -1.0
    for key in refs.keys_in_order():
        score = agreement_score_oracle([0] * width, list(refs[key].slots))
        if score > best_score:
            best_key, best_score = key, score
    assert result.key == best_key
    assert result.score == pytest.approx(best_score)


def test_match_reports_tie(refs):
    # a series equidistant between the two closest references triggers
    # the tie flag and resolves to the lower key index
    from emanakey import min_pairwise_distance

    d_min, ka, kb = min_pairwise_distance(refs)
    assert d_min % 2 == 0
    a, b = refs[ka], refs[kb]
    width = min(len(a), len(b))
    diff = np.flatnonzero(a.slots[:width] != b.slots[:width])
    hybrid = a.slots[:width].copy()
    flip = diff[: d_min // 2]
    hybrid[flip] = b.slots[flip]
    result = match(EdgeSeries(slots=hybrid, bit_width=a.bit_width), refs)
    assert result.score == result.runner_up_score
    assert result.tie
    assert result.key.index < result.runner_up.index


def test_match_score_normalized_by_reference_length(refs):
    target = key_by_label("A")  # one of the longer (stuffed) references
    result = match(refs[target], refs)
    assert result.key == target
    assert result.score == 1.0


# --- detect -----------------------------------------------------------------


def test_detect_identity_roundtrip(refs):
    for label in ("a", "Z", "0", "ENTER", "SHIFT"):
        trace = identity_trace(label)
        result = detect(trace, refs)
        assert result.key == key_by_label(label)
        assert result.score == 1.0
        assert result.margin > 0


def test_detect_scale_invariance_exact(refs):
    preset = get_preset("open-space-3m")
    clean = radiate(build_keystroke_transaction(key_by_label("m")))
    trace = apply_channel(clean, replace(preset, seed=17), FS)
    base = detect(trace, refs)
    for c in (1e-3, 0.5, 2.0, 1e3):
        scaled = EmanationTrace(
            samples=trace.samples.astype(np.float64) * c,
            sample_rate=trace.sample_rate,
        )
        result = detect(scaled, refs)
        assert result.key == base.key
        assert result.score == base.score
        assert result.alignment_offset == base.alignment_offset
        assert np.array_equal(
            result.detected_edges.slots, base.detected_edges.slots
        )


def test_detect_no_signal_is_typed_error(refs):
    quiet = EmanationTrace(samples=np.zeros(4000, dtype=np.float32), sample_rate=FS)
    with pytest.raises(NoSignalError):
        detect(quiet, refs)


def test_detect_survives_early_noise_peak(refs):
    # a lone pre-signal burst must not wreck the alignment grid
    label = "t"
    trace = identity_trace(label)
    samples = trace.samples.astype(np.float64)
    burst_t = 0.35e-6  # inside the leading pad
    from emanakey.channel import _glitch_burst

    burst = _glitch_burst(0.9 * np.abs(samples).max(), FS)
    i = int(burst_t * FS)
    samples[i : i + burst.size] += burst
    result = detect(EmanationTrace(samples=samples, sample_rate=FS), refs)
    assert result.key == key_by_label(label)


def test_detect_deterministic(refs):
    preset = get_preset("open-space-3.8m")
    clean = radiate(build_keystroke_transaction(key_by_label("5")))
    trace = apply_channel(clean, replace(preset, seed=23), FS)
    r1 = detect(trace, refs)
    r2 = detect(trace, refs)
    assert r1.key == r2.key
    assert r1.score == r2.score
    assert r1.runner_up == r2.runner_up
    assert np.array_equal(r1.detected_edges.slots, r2.detected_edges.slots)


def test_detect_result_invariants(refs):
    trace = identity_trace("f")
    result = detect(trace, refs)
    assert 0.0 <= result.runner_up_score <= result.score <= 1.0
    assert result.margin >= 0.0
    assert result.key != result.runner_up


def test_accuracy_monotone_in_noise(refs):
    # statistical: mean accuracy must not rise as noise grows
    from emanakey.channel import synth_dataset

    base = get_preset("open-space-3m")
    keys = refs.keys_in_order()
    densities = [2e-9, 4e-9, 6.5e-9, 1e-8]
    accs = []
    for i, density in enumerate(densities):
        preset = replace(base, noise_density=density, seed=900 + i)
        good = total = 0
        for trace in synth_dataset(keys, preset, repeats=8):
            try:
                good += detect(trace, refs).key == trace.ground_truth
            except NoSignalError:
                pass
            total += 1
        accs.append(good / total)
    for lo, hi in zip(accs[1:], accs[:-1]):
        assert lo <= hi + 0.02, f"accuracy rose with noise: {accs}"


# --- detect_batch -----------------------------------------------------------


def _oracle_outcome(trace, refs, cfg=CFG):
    try:
        return detect_oracle(trace, refs, cfg)
    except NoSignalError as exc:
        return ("no-signal", str(exc))


def _outcome(result):
    if isinstance(result, NoSignalError):
        return ("no-signal", str(result))
    return result


def test_detect_batch_equals_single_trace_oracle(refs):
    keys = list(KEYS[::2])
    traces = []
    for i, name in enumerate(available_presets()):
        traces += synth_dataset(keys, get_preset(name), repeats=1, master_seed=300 + i)
    base = synth_dataset(keys, get_preset("open-space-3m"), repeats=1, master_seed=310)
    for count in (1, 2, 4, 8):
        traces += [
            inject_glitch(t, count, seed=i * 7919 + count) for i, t in enumerate(base)
        ]
    # A degenerate row and a noise-only row sit between good rows; noise
    # alone still comes back as some key, so only row 40 must be no-signal.
    traces.insert(40, EmanationTrace(samples=np.zeros(3021), sample_rate=FS))
    noise = np.random.default_rng(5).normal(scale=1e-3, size=3000)
    traces.insert(90, EmanationTrace(samples=noise, sample_rate=FS))

    lengths = [t.samples.size for t in traces]
    assert set(lengths) == {3000, 3021}
    assert max(lengths.count(n) for n in set(lengths)) > _CHUNK_ROWS

    expected = [_oracle_outcome(t, refs) for t in traces]
    got = [_outcome(r) for r in detect_batch(traces, refs)]
    assert len(got) == len(traces)
    for i, (want, have) in enumerate(zip(expected, got)):
        # DetectionResult equality covers key, score, runner-up, its score,
        # offset, tie, and the detected slots and origin.
        assert have == want, f"row {i}: {have} != {want}"
    no_signal = [i for i, want in enumerate(expected) if isinstance(want, tuple)]
    assert 40 in no_signal
    assert len(no_signal) < len(traces) // 2

    # B = 1: detect raises on the same rows and returns the same results.
    for trace, want in zip(traces[30:100], expected[30:100]):
        try:
            have = detect(trace, refs)
        except NoSignalError as exc:
            have = ("no-signal", str(exc))
        assert have == want


@pytest.mark.parametrize("skip_fraction, extra", [(0.02, 21), (0.25, 23)])
def test_detect_batch_equals_oracle_off_the_default_skip(refs, skip_fraction, extra):
    # Lengths 3000 and 3000 + extra put the scale percentile on both sides
    # of the interpolation midpoint, whatever the default skip does.
    cfg = DetectorConfig(skip_fraction=skip_fraction)
    q = 100.0 * (1.0 - skip_fraction)
    assert 0 < _gamma(3000, q) < 0.5 <= _gamma(3000 + extra, q)
    traces = []
    for i, name in enumerate(["open-space-3m", "open-space-3.8m", "office-12m"]):
        traces += synth_dataset(
            list(KEYS[::7]), get_preset(name), repeats=1, master_seed=60 + i
        )
    traces += [
        EmanationTrace(samples=np.r_[t.samples, t.samples[:extra]], sample_rate=FS)
        for t in traces[::2]
    ]
    expected = [_oracle_outcome(t, refs, cfg) for t in traces]
    got = [_outcome(r) for r in detect_batch(traces, refs, cfg)]
    assert got == expected
    assert sum(isinstance(r, tuple) for r in expected) < len(traces) // 4


def test_detect_batch_empty(refs):
    assert detect_batch([], refs) == []


@pytest.mark.parametrize("offset_search", [0, 2])
def test_detect_batch_row_with_fewer_peaks_than_anchors(refs, offset_search):
    # min_peaks=1 lets a two-peak row through: its missing third anchor
    # must add no grid, while the full rows in its chunk keep theirs. The
    # references gain three leading empty slots, so that with
    # offset_search 0 every real grid of that row (one peak on slot 0, the
    # other out of range) scores below an empty one.
    from emanakey.channel import _glitch_burst
    from emanakey.edges import ReferenceSet

    cfg = DetectorConfig(min_peaks=1, offset_search=offset_search)
    padded = ReferenceSet(
        entries={
            key: EdgeSeries(slots=np.r_[0, 0, 0, s.slots], bit_width=s.bit_width)
            for key, s in refs.entries.items()
        },
        bit_rate=refs.bit_rate,
        method=refs.method,
    )
    samples = np.zeros(3000)
    burst = _glitch_burst(1.0, FS)
    for i in (60, 2880):  # more slots apart than any reference is long
        samples[i : i + burst.size] += burst
    sparse = EmanationTrace(samples=samples, sample_rate=FS)
    traces = [identity_trace("a"), sparse, identity_trace("Q")]
    traces += synth_dataset(
        list(KEYS[:6]), get_preset("open-space-3.8m"), repeats=1, master_seed=77
    )
    got = detect_batch(traces, padded, cfg)
    assert got == [detect_oracle(t, padded, cfg) for t in traces]
    assert got[1].detected_edges.ones <= 2


# --- empty traces and the per-thread chunk workspace -------------------------


def test_zero_sample_trace_is_no_signal(refs):
    empty = EmanationTrace(samples=np.zeros(0), sample_rate=FS)
    good = synth_dataset(
        list(KEYS[:5]), get_preset("open-space-3m"), repeats=1, master_seed=21
    )
    got = detect_batch([good[0], empty, *good[1:], empty], refs)
    assert isinstance(got[1], NoSignalError)
    assert isinstance(got[-1], NoSignalError)
    assert [_outcome(r) for r in [got[0], *got[2:-1]]] == [
        _oracle_outcome(t, refs) for t in good
    ]
    with pytest.raises(NoSignalError):
        detect(empty, refs)
    with pytest.raises(DegenerateTraceError):
        normalize(np.zeros(0))


def _long_trace():
    """One 250,000-sample capture (1 ms at 250 MS/s) holding one keystroke."""
    clean = radiate(build_keystroke_transaction(key_by_label("k")))
    window = np.zeros(250_000)
    window[100_000 : 100_000 + clean.size] = clean
    return apply_channel(window, replace(get_preset("open-space-2.5m"), seed=3), FS)


def _mixed_length_dataset(seed):
    traces = synth_dataset(
        list(KEYS), get_preset("open-space-3m"), repeats=1, master_seed=seed
    )
    lengths = [t.samples.size for t in traces]
    assert set(lengths) == {3000, 3021}
    assert max(lengths.count(n) for n in set(lengths)) > _CHUNK_ROWS
    return traces


def test_concurrent_detect_batch_equals_serial(refs):
    import sys
    import threading

    datasets = [_mixed_length_dataset(31), _mixed_length_dataset(32), [_long_trace()]]
    serial = [[_outcome(r) for r in detect_batch(ds, refs)] for ds in datasets]
    calls = 3
    results: dict[tuple[int, int], tuple[int, list]] = {}
    errors: list[BaseException] = []

    def worker(w):
        try:
            for j in range(calls):
                d = (w + j) % len(datasets)
                results[w, j] = d, [_outcome(r) for r in detect_batch(datasets[d], refs)]
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)

    # More threads than this test needs cores, switching as often as the
    # interpreter allows, so the threads' chunks interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 4 * calls
    for d, got in results.values():
        assert got == serial[d]


def test_other_fft_size_between_batches_changes_no_result(refs):
    traces = _mixed_length_dataset(33)
    expected = [_oracle_outcome(t, refs) for t in traces]
    assert [_outcome(r) for r in detect_batch(traces, refs)] == expected
    detect(_long_trace(), refs)
    detect_batch([t for t in traces[:40] if t.samples.size == 3000][:3] + [
        EmanationTrace(samples=traces[0].samples[:1500], sample_rate=FS)
    ], refs)
    assert [_outcome(r) for r in detect_batch(traces, refs)] == expected


def test_lone_detect_after_full_chunk_equals_oracle(refs):
    # 3000 and 3021 samples share one FFT size, so a lone 3000-sample trace
    # reuses the padded rows a 3021-sample chunk filled.
    traces = _mixed_length_dataset(34)
    long_rows = [t for t in traces if t.samples.size == 3021]
    short = [t for t in traces if t.samples.size == 3000]
    chunk = (long_rows * _CHUNK_ROWS)[:_CHUNK_ROWS]
    detect_batch(chunk, refs)
    for trace in short + long_rows[:3]:
        try:
            have = detect(trace, refs)
        except NoSignalError as exc:
            have = ("no-signal", str(exc))
        assert have == _oracle_outcome(trace, refs)


def test_thread_keeps_no_workspace_above_a_full_sweep_chunk(refs):
    # A full chunk of sweep traces stays in the thread for the next call;
    # a 250,000-sample capture's buffers are freed with its call.
    from emanakey import detector

    detect_batch(_mixed_length_dataset(35), refs)
    kept = detector._local.workspace
    assert kept.padded.shape[0] >= _CHUNK_ROWS
    assert kept.padded.size <= detector._KEPT_CELLS
    detect(_long_trace(), refs)
    assert detector._local.workspace is kept
