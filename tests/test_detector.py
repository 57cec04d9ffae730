import math
import multiprocessing
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal as sp_signal

from emanakey import (
    ConfigError,
    DegenerateTraceError,
    DetectorConfig,
    EmanakeyError,
    FileFormatError,
    NoSignalError,
    SampleRateError,
    apply_channel,
    build_keystroke_transaction,
    detect,
    detect_batch,
    available_presets,
    get_preset,
    inject_glitch,
    key_by_label,
    normalize,
    radiate,
    threshold_and_peaks,
)
from emanakey.channel import EmanationTrace, clean_waveform, synth_dataset
from emanakey.detector import (
    _CHUNK_ROWS,
    AMPLITUDE,
    ANCHOR_CANDIDATES,
    DEFAULT_CONFIG,
    FILTER_TAPS,
    FLOOR,
    _band_envelope,
    _grid_slots,
    _normalize,
    _peak_rows,
)
from emanakey.dsp import _percentile_rows
from emanakey.edges import EdgeSeries
from emanakey.keys import KEYS

from oracle import (
    agreement_score_oracle,
    amplitude_envelope,
    bandpass,
    detect_oracle,
    glitch_burst_oracle,
    match,
)

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
    assert AMPLITUDE == 3.3
    assert CFG.skip_fraction == 0.01
    assert FLOOR == pytest.approx(3.3 / 2)
    assert CFG.min_peak_separation == pytest.approx(2 / 3)
    assert CFG.proximity_window == pytest.approx(1 / 3)
    assert CFG.offset_search == 2
    assert CFG.min_peaks == 10
    assert FILTER_TAPS == 321 and ANCHOR_CANDIDATES == 3


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(band_low=20e6, band_high=18e6)
    with pytest.raises(ValueError):
        DetectorConfig(skip_fraction=0.6)
    for bad in (
        {"offset_search": -1}, {"min_peaks": -1},
        {"band_low": 0.0}, {"proximity_window": math.nan},
        {"band_high": math.inf}, {"proximity_window": -1.0},
        {"proximity_window": 0.0}, {"min_peak_separation": 0.0},
        {"min_peak_separation": -0.5},
    ):
        with pytest.raises(ValueError):
            DetectorConfig(**bad)
    for bad in ({"min_peaks": "12"}, {"offset_search": 2.0}, {"min_peaks": True},
                {"skip_fraction": "0.01"}):
        with pytest.raises(TypeError):
            DetectorConfig(**bad)


def test_config_file_with_every_key(tmp_path):
    path = tmp_path / "detector.json"
    path.write_text(
        '{"band_low_hz": 9e6, "band_high_hz": 17e6, "skip_fraction": 0.02,\n'
        ' "min_peak_separation_bits": 0.5, "proximity_window_bits": 0.25,\n'
        ' "offset_search_slots": 3, "min_peaks": 12}\n'
    )
    assert DetectorConfig.from_file(path) == DetectorConfig(
        band_low=9e6, band_high=17e6, skip_fraction=0.02, min_peak_separation=0.5,
        proximity_window=0.25, offset_search=3, min_peaks=12,
    )


def test_config_file_missing_keys_take_defaults(tmp_path):
    path = tmp_path / "detector.json"
    path.write_text('{"min_peaks": 12}\n')
    assert DetectorConfig.from_file(path) == DetectorConfig(min_peaks=12)


@pytest.mark.parametrize(
    "key, value",
    [("amplitude_v", 3.3), ("zero_floor_v", 1.65), ("bit_rate_bps", 12e6),
     ("filter_taps", 321), ("anchor_candidates", 3)],
)
def test_config_file_with_a_fixed_setting_is_rejected(tmp_path, key, value):
    # Each key restates a value the detector fixes: the scale, its floor,
    # the references' bit rate, the filter length and the anchor count.
    path = tmp_path / "detector.json"
    path.write_text(f'{{"min_peaks": 12, "{key}": {value}}}\n')
    with pytest.raises(FileFormatError, match=key):
        DetectorConfig.from_file(path)


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


def test_bandpass_requires_adequate_rate(refs):
    slow = EmanationTrace(samples=tone(5e6, n=3000, fs=30e6), sample_rate=30e6)
    with pytest.raises(SampleRateError):
        detect(slow, refs)
    with pytest.raises(SampleRateError):
        detect_batch([slow], refs)


def test_fused_envelope_matches_composition():
    trace = identity_trace("g")
    fused = _band_envelope([trace.samples], FS, CFG)[0][0, : trace.samples.size]
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


def test_normalize_clips_both_signs():
    x = np.ones(1000)
    x[200], x[700] = -1000.0, 1000.0  # one spike of each sign
    x[300] = -0.5
    out = normalize(x)
    assert out[200] == -AMPLITUDE and out[700] == AMPLITUDE
    assert out[300] == pytest.approx(-AMPLITUDE / 2)
    assert out.min() == -AMPLITUDE and out.max() == AMPLITUDE


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
    envelope = _band_envelope([trace.samples], FS, CFG)[0][0, : trace.samples.size]
    peaks = threshold_and_peaks(normalize(envelope), FS)
    assert peaks.size == refs[key_by_label("a")].ones


def test_no_peak_pair_violates_separation_on_detection(refs):
    preset = get_preset("open-space-3.8m")
    clean = radiate(build_keystroke_transaction(key_by_label("w")))
    trace = apply_channel(clean, replace(preset, seed=42), FS)
    envelope = _band_envelope([trace.samples], FS, CFG)[0][0, : trace.samples.size]
    peaks = threshold_and_peaks(normalize(envelope), FS)
    min_gap = np.diff(peaks).min()
    assert min_gap >= (2 / 3) * (1 / 12e6) * 0.999


# --- slot grid --------------------------------------------------------------


def grid_slots(peaks, ref):
    """Slots of the one grid that puts slot 0 at the first peak."""
    return _grid_slots(
        peaks[None, :], peaks[None, :1], 0, ref.bit_width, len(ref), CFG.proximity_window
    )[0, 0]


def make_ref(n=20):
    slots = np.zeros(n, dtype=np.uint8)
    slots[[0, 3, 7, 12]] = 1
    return EdgeSeries(slots=slots, bit_width=1 / 12e6)


def test_form_series_exact_centers():
    ref = make_ref()
    bit = ref.bit_width
    peaks = np.array([0.0, 3 * bit, 7 * bit, 12 * bit]) + 5e-6
    assert np.array_equal(grid_slots(peaks, ref), ref.slots)


def test_form_series_tolerates_jitter():
    ref = make_ref()
    bit = ref.bit_width
    rng = np.random.default_rng(8)
    jitter = rng.uniform(-0.3 * bit, 0.3 * bit, size=3)
    peaks = np.concatenate(([0.0], np.array([3, 7, 12]) * bit + jitter)) + 5e-6
    assert np.array_equal(grid_slots(peaks, ref), ref.slots)


def test_form_series_spurious_peak_adds_one():
    ref = make_ref()
    bit = ref.bit_width
    peaks = np.array([0.0, 3 * bit, 5 * bit, 7 * bit, 12 * bit]) + 5e-6
    slots = grid_slots(peaks, ref)
    assert slots[5] == 1
    assert int(slots.sum()) == ref.ones + 1


def test_form_series_peak_outside_proximity_ignored():
    ref = make_ref()
    bit = ref.bit_width
    peaks = np.array([0.0, 3 * bit, 8.5 * bit, 12 * bit]) + 5e-6
    slots = grid_slots(peaks, ref)
    assert slots[8] == 0
    assert slots[9] == 0


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
        }
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


# --- the Detections record ---------------------------------------------------


def _no_signal_traces():
    """An all-zero trace, one whose only rise is at its end (no local maximum
    above the floor), and a constant one (two peaks)."""
    step = (np.arange(3000) > 2990).astype(float)
    return [
        EmanationTrace(samples=x, sample_rate=FS)
        for x in (np.zeros(3000), step, np.ones(3000))
    ]


@pytest.mark.parametrize("name", available_presets())
def test_every_field_of_every_row_equals_the_oracle(refs, name):
    traces = []
    for seed in (501, 502):
        traces += synth_dataset(list(KEYS), get_preset(name), repeats=1, master_seed=seed)
    traces += _no_signal_traces()
    got = detect_batch(traces, refs)
    assert len(got) == len(traces)
    messages = []
    for i, trace in enumerate(traces):
        have = got[i]
        try:
            want = detect_oracle(trace, refs)
        except NoSignalError as exc:
            assert type(have) is NoSignalError and str(have) == str(exc), i
            assert got.reason[i] > 0 and got.key[i] == got.runner_up[i] == -1
            assert got.score[i] == got.runner_up_score[i] == got.margin[i] == 0.0
            messages.append(str(exc))
            continue
        assert got.reason[i] == 0
        assert have.key == want.key == refs.keys_in_order()[got.key[i]]
        assert have.score == want.score == got.score[i]
        assert have.runner_up == want.runner_up == refs.keys_in_order()[got.runner_up[i]]
        assert have.runner_up_score == want.runner_up_score
        assert have.margin == want.margin == got.margin[i]
        assert have.alignment_offset == want.alignment_offset == got.offset[i]
        assert have.tie is want.tie
        edges, want_edges = have.detected_edges, want.detected_edges
        assert edges.slots.tobytes() == want_edges.slots.tobytes()
        assert edges.bit_width == want_edges.bit_width == refs.bit_width
        assert edges.origin == want_edges.origin
        assert edges.origin == got.anchor[i] - got.offset[i] * refs.bit_width
        assert not got.slots[i, len(edges) :].any()
    assert messages[-3:] == [
        "all-zero trace cannot be normalized",
        "no peaks above the amplitude floor",
        "only 2 peaks detected (< 10); trace carries no usable signal",
    ]


def test_record_is_a_sequence_of_its_items(refs):
    traces = synth_dataset(
        list(KEYS[:6]), get_preset("open-space-3.8m"), repeats=1, master_seed=43
    )
    traces.insert(2, EmanationTrace(samples=np.zeros(0), sample_rate=FS))
    traces += _no_signal_traces()
    got = detect_batch(traces, refs)
    items = list(got)
    assert got == items and items == got
    assert str(got[2]) == "empty trace cannot be normalized"
    assert got[1:4] == items[1:4] and got[::2] == items[::2]
    assert isinstance(got[1:4], type(got)) and len(got[3:]) == len(items) - 3
    assert got != items[:-1] and got != items[::-1]
    assert [r.key for r in got[:2]] == [detect(t, refs).key for t in traces[:2]]
    with pytest.raises(IndexError):
        got[len(traces)]


def test_first_close_maxima_trace_imports_no_masked_arrays(refs):
    # numpy's np.unique imports numpy.ma on its first call: 12-19 ms on
    # the first trace whose distance rule runs.
    import subprocess
    import sys

    import emanakey

    trace = synth_dataset([KEYS[4]], get_preset("open-space-3.8m"), repeats=1, master_seed=3)
    maxima = sp_signal.find_peaks(_floored_envelope(trace[0]))[0]
    min_sep = round(CFG.min_peak_separation * refs.bit_width * FS)
    assert (np.diff(maxima) < min_sep).any()
    code = "\n".join([
        "import sys",
        "import emanakey",
        "from emanakey import channel, detector, edges",
        "from emanakey.keys import KEYS",
        "refs = edges.build_reference_set()",
        "trace = channel.synth_dataset([KEYS[4]], channel.get_preset('open-space-3.8m'),",
        "                              repeats=1, master_seed=3)[0]",
        "detector.detect(trace, refs)",
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(emanakey.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


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
    # A full chunk of sweep traces (nfft 3360) stays in the thread for the
    # next call: its input rows and one slice's complex spectra. A
    # 250,000-sample capture's buffer is freed with its call. A call with
    # one chunk runs it on the calling thread.
    from emanakey import detector

    same_length = [t for t in _mixed_length_dataset(35) if t.samples.size == 3000]
    detect_batch(same_length[:_CHUNK_ROWS], refs)
    kept = detector._local.workspace
    cells = (_CHUNK_ROWS + 2 * detector._SLICE_ROWS) * 3360
    assert cells <= kept.size <= detector._KEPT_CELLS < 3 * _CHUNK_ROWS * 3360
    detect(_long_trace(), refs)
    assert detector._local.workspace is kept


def test_kept_buffer_serves_a_chunk_of_another_fft_size(refs):
    from emanakey import detector

    traces = _mixed_length_dataset(36)
    same_length = [t for t in traces if t.samples.size == 3000]
    detect_batch(same_length[:_CHUNK_ROWS], refs)
    kept = detector._local.workspace
    short = EmanationTrace(samples=traces[0].samples[:1500], sample_rate=FS)
    [got] = detect_batch([short], refs)
    assert detector._local.workspace is kept
    assert _outcome(got) == _oracle_outcome(short, refs)


def test_detect_batch_follows_the_references_bit_rate():
    # USB low speed: eight times the full-speed bit width. Identity traces
    # come back whole only if the slot grid takes the references' bit; the
    # noisy ones equal the oracle only if the peak spacing takes it too.
    from emanakey.edges import ReferenceSet, edges_analytic

    entries, identity, noisy = {}, [], []
    for key in KEYS:
        frame = replace(build_keystroke_transaction(key), bit_rate=1.5e6)
        entries[key] = edges_analytic(frame)
        clean = radiate(frame)
        identity.append(apply_channel(clean, get_preset("identity"), FS))
        noisy.append(apply_channel(
            clean, get_preset("open-space-3m"), FS, key, stream=(23, 0)
        ))
    slow = ReferenceSet(entries=entries)
    results = detect_batch(identity, slow)
    assert [r.key for r in results] == list(KEYS)
    assert all(r.score == 1.0 for r in results)
    assert all(r.detected_edges.bit_width == 1 / 1.5e6 for r in results)
    got = [_outcome(r) for r in detect_batch(noisy, slow)]
    assert got == [_oracle_outcome(t, slow) for t in noisy]


# --- one peak pass and one wide grid per chunk -------------------------------


def _floored_envelope(trace, cfg=CFG):
    """The floored envelope row the peak pass searches, taken from a lone row."""
    n = trace.samples.size
    block, scratch = _band_envelope([trace.samples], trace.sample_rate, cfg)
    _normalize(block[:, :n], cfg, scratch)
    y = block[0, :n].copy()
    return y * (y >= FLOOR)


def _assert_batch_equals_oracle(traces, refs, cfg=CFG):
    expected = [_oracle_outcome(t, refs, cfg) for t in traces]
    got = [_outcome(r) for r in detect_batch(traces, refs, cfg)]
    for i, (have, want) in enumerate(zip(got, expected)):
        assert have == want, f"row {i}: {have} != {want}"
    return expected


def test_row_whose_distance_rule_drops_a_peak_equals_oracle(refs):
    traces = synth_dataset(
        list(KEYS[:20]), get_preset("open-space-3.8m"), repeats=1, master_seed=3
    )
    min_sep = round(CFG.min_peak_separation * refs.bit_width * FS)
    dropped = []
    for i, trace in enumerate(traces):
        y = _floored_envelope(trace)
        maxima = sp_signal.find_peaks(y)[0]
        if sp_signal.find_peaks(y, distance=min_sep)[0].size < maxima.size:
            dropped.append(i)
    assert dropped, "no row here has two maxima closer than the minimum separation"
    assert len(dropped) < len(traces)
    expected = _assert_batch_equals_oracle(traces, refs)
    for i in dropped:
        assert detect(traces[i], refs) == expected[i]


def _edge_plateau_trace(key):
    """A keystroke with a burst centred on its first and on its last sample.

    The bursts' envelope tops the scale percentile at both ends, so the
    normalized envelope is clipped to A there: a plateau that touches the
    row's first and last samples.
    """
    burst = glitch_burst_oracle(2.0, FS)
    half = burst.size // 2
    samples = clean_waveform(key, FS).copy()
    samples[: half + 1] += burst[half:]
    samples[-half - 1 :] += burst[: half + 1]
    return EmanationTrace(samples=samples, sample_rate=FS, ground_truth=key)


def test_plateau_at_a_rows_first_and_last_sample_equals_oracle(refs):
    plateaus = [_edge_plateau_trace(key) for key in KEYS[:6]]
    for trace in plateaus:
        y = _floored_envelope(trace)
        assert y[0] == y[1] == AMPLITUDE and y[-2] == y[-1] == AMPLITUDE
    others = synth_dataset(
        list(KEYS[6:9]), get_preset("open-space-3m"), repeats=1, master_seed=4
    )
    # Plateau rows meet each other and ordinary rows at both ends.
    traces = plateaus[:3] + others[:1] + plateaus[3:] + others[1:]
    n = 3000
    assert {t.samples.size for t in traces} == {n}

    # One pass over the chunk finds in each row what find_peaks finds in
    # that row alone.
    block, scratch = _band_envelope([t.samples for t in traces], FS, CFG)
    _normalize(block[:, :n], CFG, scratch)
    min_sep = round(CFG.min_peak_separation * refs.bit_width * FS)
    alone = [
        sp_signal.find_peaks(y * (y >= FLOOR), distance=min_sep)[0] / FS
        for y in block[:, :n].copy()
    ]
    times, counts = _peak_rows(block, n, FS, refs.bit_width, CFG)
    for row, want in enumerate(alone):
        assert np.array_equal(times[row, : counts[row]], want), row
        assert np.isnan(times[row, counts[row] :]).all(), row

    expected = _assert_batch_equals_oracle(traces, refs)
    assert [r.key for r in expected[:3]] == list(KEYS[:3])


def test_a_rows_bits_do_not_depend_on_its_chunk(refs):
    traces = _mixed_length_dataset(36)
    traces += synth_dataset(
        list(KEYS[::3]), get_preset("office-12m"), repeats=1, master_seed=37
    )
    expected = _assert_batch_equals_oracle(traces, refs)
    order = np.random.default_rng(36).permutation(len(traces))
    got = detect_batch([traces[i] for i in order], refs)
    assert [_outcome(r) for r in got] == [expected[i] for i in order]
    got = detect_batch(traces[::-1], refs)
    assert [_outcome(r) for r in got] == expected[::-1]
    for start in range(0, len(traces), 7):
        got = detect_batch(traces[start : start + 7], refs)
        assert [_outcome(r) for r in got] == expected[start : start + 7]


@pytest.mark.parametrize("offset_search", [0, 1, 5])
def test_detect_batch_equals_oracle_at_offset_search(refs, offset_search):
    cfg = DetectorConfig(offset_search=offset_search)
    traces = synth_dataset(
        list(KEYS[::5]), get_preset("open-space-3.8m"), repeats=1, master_seed=40
    )
    traces += synth_dataset(
        list(KEYS[1::5]), get_preset("office-12m"), repeats=1, master_seed=41
    )
    traces.insert(3, _edge_plateau_trace(KEYS[5]))
    _assert_batch_equals_oracle(traces, refs, cfg)


def test_widest_offset_search_equals_oracle(refs):
    cfg = DetectorConfig(offset_search=refs.slot_matrix.shape[1] - 1)
    traces = synth_dataset(
        list(KEYS[:3]), get_preset("open-space-3m"), repeats=1, master_seed=42
    )
    _assert_batch_equals_oracle(traces, refs, cfg)


def test_offset_search_must_stay_below_the_slot_width(refs):
    width = refs.slot_matrix.shape[1]
    for search in (width, 100_000):
        cfg = DetectorConfig(offset_search=search)
        with pytest.raises(ConfigError, match=f"is {search}; .* slot width, {width}"):
            detect(identity_trace(), refs, cfg)
        with pytest.raises(EmanakeyError):
            detect_batch([], refs, cfg)


@pytest.mark.parametrize(
    "sample_rate, proximity", [(250e6, 1 / 3), (72e6, 1 / 3), (60e6, 0.4), (48e6, 0.5)]
)
def test_grid_at_each_anchor_slot_is_the_wide_grid_shifted_by_whole_slots(
    sample_rate, proximity
):
    # A peak lies a multiple of 1/6 slot from an anchor at 72 MS/s, of 0.2
    # at 60 MS/s and of 0.25 at 48 MS/s: on the proximity edge or on a half
    # slot, where rounding p + k can place a peak unlike rounding p. The
    # grid rule rounds p alone, so every anchor slot places the same peaks.
    rng = np.random.default_rng(int(sample_rate))
    bit, search, width = 1 / 12e6, 2, 121
    for _ in range(40):
        # Two rows, the second NaN-padded like a row with fewer peaks.
        samples = rng.choice(np.arange(10, 3000), size=(2, 100), replace=False)
        peaks = np.sort(samples, axis=1) / sample_rate
        peaks[1, 60:] = np.nan
        anchors = peaks[:, :ANCHOR_CANDIDATES]
        wide = _grid_slots(peaks, anchors, search, bit, width + 2 * search, proximity)
        for k in range(-search, search + 1):
            grid = _grid_slots(peaks, anchors, k, bit, width, proximity)
            assert np.array_equal(grid, wide[:, :, search - k : search - k + width]), k


def test_windows_whose_edge_falls_on_the_sample_grid_equal_oracle(refs):
    # Each setting puts peaks exactly on the proximity edge: spacings are
    # multiples of 0.2 slot at 60 MS/s, 0.3 at 40 MS/s and 0.25 at 48 MS/s.
    # There a grid built by rounding p + k differs from the shifted one, and
    # the difference reaches these rows' results (key 27 at 40 MS/s).
    for rate, window, preset, seed, keys in (
        (60e6, 0.4, "open-space-3.8m", 7, (13, 25, 44, 55)),
        (40e6, 0.4, "open-space-3m", 3, (27, 35, 54, 57)),
        (48e6, 0.5, "open-space-3.8m", 2, (11, 23, 27, 49)),
    ):
        traces = synth_dataset(
            [KEYS[i] for i in keys], get_preset(preset), repeats=1,
            master_seed=seed, sample_rate=rate,
        )
        _assert_batch_equals_oracle(traces, refs, DetectorConfig(proximity_window=window))


# --- chunk workers ------------------------------------------------------------


@pytest.fixture
def chunk_workers(monkeypatch):
    """The detector module with no pool yet and four CPUs to build one for,
    so multi-chunk calls take the worker path on any host."""
    from emanakey import detector

    def drop_pool():  # joins its threads, so none exits mid-test
        if detector._pool.cache_info().currsize:
            detector._pool().shutdown()
        detector._pool.cache_clear()

    monkeypatch.setattr(detector, "_cpus", lambda: 4)
    drop_pool()
    yield detector
    drop_pool()


def _two_rate_dataset():
    """Traces of 3000 and 3021 samples at 250 MS/s and of two lengths at
    200 MS/s, interleaved: four groups, six chunks."""
    fast = _mixed_length_dataset(37)
    slow = synth_dataset(
        list(KEYS), get_preset("open-space-3m"), repeats=1, master_seed=38,
        sample_rate=200e6,
    )
    assert len({t.samples.size for t in slow}) == 2
    return [t for pair in zip(fast, slow) for t in pair]


def test_chunks_on_the_workers_equal_the_single_trace_oracle(
    refs, chunk_workers, monkeypatch
):
    threads = []
    detect_rows = chunk_workers._detect_rows

    def recording(*args):
        threads.append(threading.current_thread().name)
        return detect_rows(*args)

    monkeypatch.setattr(chunk_workers, "_detect_rows", recording)
    traces = _two_rate_dataset()
    got = [_outcome(r) for r in detect_batch(traces, refs)]
    assert len(threads) > 4
    assert all(name.startswith("emanakey-detect") for name in threads)
    for i, (have, trace) in enumerate(zip(got, traces)):
        assert have == _oracle_outcome(trace, refs), f"row {i}"


def test_sample_rate_error_from_one_group_propagates_from_the_workers(refs, chunk_workers):
    traces = _mixed_length_dataset(39)
    slow = EmanationTrace(samples=traces[0].samples, sample_rate=30e6)
    for batch in (traces + [slow], [slow] + traces):
        with pytest.raises(SampleRateError):
            detect_batch(batch, refs)
    assert chunk_workers._pool.cache_info().currsize == 1
    # The pool still serves the next call.
    assert [_outcome(r) for r in detect_batch(traces, refs)] == [
        _outcome(detect_batch([t], refs)[0]) for t in traces
    ]


def test_pool_is_built_only_for_a_call_with_several_chunks(
    refs, chunk_workers, monkeypatch
):
    same_length = [t for t in _mixed_length_dataset(40) if t.samples.size == 3000]
    cpu_queries = []
    monkeypatch.setattr(chunk_workers, "_cpus", lambda: cpu_queries.append(1) or 4)
    before = set(threading.enumerate())
    try:
        detect(same_length[0], refs)
    except NoSignalError:
        pass
    detect_batch(same_length[:_CHUNK_ROWS], refs)
    assert chunk_workers._pool.cache_info().currsize == 0
    assert set(threading.enumerate()) == before
    assert cpu_queries == []  # a one-chunk call does no work for the pool
    detect_batch(same_length[: _CHUNK_ROWS + 1], refs)
    assert chunk_workers._pool.cache_info().currsize == 1


def test_one_cpu_runs_every_chunk_on_the_calling_thread(refs, chunk_workers, monkeypatch):
    monkeypatch.setattr(chunk_workers, "_cpus", lambda: 1)
    traces = _mixed_length_dataset(41)
    before = set(threading.enumerate())
    got = [_outcome(r) for r in detect_batch(traces, refs)]
    assert chunk_workers._pool.cache_info().currsize == 0
    assert set(threading.enumerate()) == before
    assert got == [_oracle_outcome(t, refs) for t in traces]


def _detect_in_child(traces, refs, conn):
    from emanakey import detector

    conn.send(detector._pool.cache_info().currsize)
    conn.send([_outcome(r) for r in detect_batch(traces, refs)])
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_detects_after_the_parent_used_the_pool(refs, chunk_workers):
    # The child has none of the parent's worker threads; it must not hand
    # its chunks to the parent's pool, where they would never run.
    traces = _mixed_length_dataset(42)
    parent = [_outcome(r) for r in detect_batch(traces, refs)]
    assert chunk_workers._pool.cache_info().currsize == 1
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_detect_in_child, args=(traces, refs, writer))
    child.start()
    try:
        assert reader.poll(30), "the forked child did not start"
        cached = reader.recv()
        assert reader.poll(30), "the forked child's detect_batch did not finish"
        got = reader.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert not child.is_alive() and child.exitcode == 0
    assert cached == 0
    assert got == parent


def _chunk_wide_grids(traces, refs, cfg=CFG):
    """One chunk's wide slot vectors, from its real peaks."""
    n, rate = traces[0].samples.size, traces[0].sample_rate
    block, scratch = _band_envelope([t.samples for t in traces], rate, cfg)
    _normalize(block[:, :n], cfg, scratch)
    peaks, _ = _peak_rows(block, n, rate, refs.bit_width, cfg)
    search, width = cfg.offset_search, refs.slot_matrix.shape[1]
    return _grid_slots(
        peaks, peaks[:, :ANCHOR_CANDIDATES], search, refs.bit_width, width + 2 * search,
        cfg.proximity_window,
    )


def test_stacked_matmul_counts_equal_the_flat_matmul(refs):
    # A full chunk's flat GEMM is large enough for BLAS to split it over
    # threads; per-row GEMMs are not. The counts must agree either way.
    traces = [t for t in _mixed_length_dataset(43) if t.samples.size == 3000]
    wide = _chunk_wide_grids(traces[:_CHUNK_ROWS], refs)
    table = refs.shift_table(CFG.offset_search)
    stacked = wide @ table
    flat = wide.reshape(-1, wide.shape[-1]) @ table
    assert stacked.dtype == np.float32
    assert np.array_equal(stacked.reshape(flat.shape), flat)
    assert np.array_equal(stacked, np.rint(stacked))
