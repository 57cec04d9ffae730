import math
import re
from dataclasses import replace

import numpy as np
import pytest

from emanakey import (
    ChannelPreset,
    Interferer,
    PulseShape,
    UnknownPresetError,
    apply_channel,
    available_presets,
    build_keystroke_transaction,
    distance_to_gain_db,
    edges_analytic,
    get_preset,
    inject_glitch,
    key_by_label,
    radiate,
    synth_dataset,
)
from emanakey import channel
from emanakey.channel import (
    KNEE_GAIN_DB,
    _draw_glitches,
    _glitch_burst,
    _interference,
    _robust_max,
    clean_waveform,
    synth_units,
)
from emanakey.edges import EdgeSeries
from emanakey.keys import KEYS

from oracle import (
    bandpass,
    glitch_burst_oracle,
    inject_glitch_oracle,
    interference_oracle,
    radiate_oracle,
    robust_max_oracle,
)

FS = 250e6


def make_clean(label="a", pulse=None):
    return radiate(build_keystroke_transaction(key_by_label(label)), pulse=pulse)


# --- radiate -------------------------------------------------------------


def test_radiate_zero_edges_is_silent():
    series = EdgeSeries(slots=np.zeros(50, dtype=np.uint8), bit_width=1 / 12e6)
    wave = radiate(series, sample_rate=FS)
    assert np.all(wave == 0.0)


def test_radiate_single_edge_single_pulse():
    slots = np.zeros(50, dtype=np.uint8)
    slots[25] = 1
    series = EdgeSeries(slots=slots, bit_width=1 / 12e6)
    wave = radiate(series, sample_rate=FS, pad_before=1e-6, pad_after=1e-6)
    peak_t = np.argmax(np.abs(wave)) / FS
    expected = 1e-6 + 25 / 12e6
    assert peak_t == pytest.approx(expected, abs=4e-9)
    # energy confined near the pulse
    window = np.abs(wave[int((expected - 0.3e-6) * FS) : int((expected + 0.3e-6) * FS)])
    assert np.abs(wave).sum() == pytest.approx(window.sum(), rel=1e-6)


def test_radiate_bursts_align_with_reference_slots():
    frame = build_keystroke_transaction(key_by_label("a"))
    series = edges_analytic(frame)
    wave = radiate(frame, sample_rate=FS)
    bit = series.bit_width
    envelope = np.abs(wave)
    edge_energy = 0.0
    empty_energy = 0.0
    for s in range(len(series)):
        t = 1e-6 + s * bit
        seg = envelope[int((t - bit / 4) * FS) : int((t + bit / 4) * FS)]
        if series.slots[s]:
            edge_energy += float(np.max(seg))
        else:
            empty_energy += float(np.max(seg))
    assert edge_energy / series.ones > 4 * empty_energy / (len(series) - series.ones)


@pytest.mark.parametrize("rate", [100e6, 250e6, 500e6])
@pytest.mark.parametrize("pad", [0.0, 1e-6])
def test_radiate_matches_per_edge_oracle(rate, pad):
    # pad 0 clips the first and last pulses at the window ends
    for key in KEYS:
        frame = build_keystroke_transaction(key)
        got = radiate(frame, sample_rate=rate, pad_before=pad, pad_after=pad)
        want = radiate_oracle(frame, sample_rate=rate, pad_before=pad, pad_after=pad)
        assert np.array_equal(got, want), key.label


def test_radiate_edge_series_matches_oracle():
    pulse = PulseShape(center_freq=12e6, sigma=30e-9, amplitude=0.7)
    for label in ("a", "Q", "ENTER"):
        series = edges_analytic(build_keystroke_transaction(key_by_label(label)))
        assert np.array_equal(
            radiate(series, pulse=pulse, pad_before=0.2e-6),
            radiate_oracle(series, pulse=pulse, pad_before=0.2e-6),
        )


def test_clean_waveform_is_built_once_and_read_only():
    key = key_by_label("a")
    wave = clean_waveform(key, sample_rate=FS)
    assert clean_waveform(key, FS) is wave
    assert np.array_equal(wave, make_clean("a"))
    with pytest.raises(ValueError):
        wave[0] = 1.0


def test_pulse_spectrum_centered_in_band():
    pulse = PulseShape()
    t = np.arange(-400, 401) / FS
    w = pulse.waveform(t)
    spec = np.abs(np.fft.rfft(w, 1 << 14)) ** 2
    freqs = np.fft.rfftfreq(1 << 14, 1 / FS)
    total = spec.sum()
    in_band = spec[(freqs >= 10e6) & (freqs <= 18e6)].sum()
    assert in_band / total > 0.40
    peak_freq = freqs[np.argmax(spec)]
    assert 10e6 < peak_freq < 18e6


# --- apply_channel -------------------------------------------------------


def test_identity_channel_is_transparent(identity_preset):
    clean = make_clean()
    trace = apply_channel(clean, identity_preset, FS)
    assert np.allclose(trace.samples, clean.astype(np.float32), atol=0)
    assert trace.sample_rate == FS


def test_seed_determinism():
    preset = get_preset("open-space-3m")
    clean = make_clean()
    t1 = apply_channel(clean, preset, FS)
    t2 = apply_channel(clean, preset, FS)
    assert np.array_equal(t1.samples, t2.samples)


def test_shielding_attenuates_signal_only():
    base = ChannelPreset(name="t", gain_db=-60.0, noise_density=2e-9, seed=5)
    shielded = ChannelPreset(
        name="t", gain_db=-60.0, noise_density=2e-9, shielding_db=30.0, seed=5
    )
    clean = make_clean().astype(np.float64)
    t0 = apply_channel(clean, base, FS).samples.astype(np.float64)
    t1 = apply_channel(clean, shielded, FS).samples.astype(np.float64)
    # same seed -> identical noise, so subtracting the known signal parts
    # must leave the same residue: the signal dropped by exactly 30 dB
    sig0 = clean * 10 ** (-60 / 20)
    sig1 = clean * 10 ** (-90 / 20)
    assert np.allclose(t0 - sig0, t1 - sig1, rtol=0, atol=1e-9)
    assert sig1.max() / sig0.max() == pytest.approx(10 ** (-30 / 20), rel=1e-12)


def test_linearity_of_deterministic_path(identity_preset):
    clean = make_clean()
    t1 = apply_channel(clean, identity_preset, FS).samples.astype(np.float64)
    t2 = apply_channel(3.0 * clean, identity_preset, FS).samples.astype(np.float64)
    assert np.allclose(t2, 3.0 * t1, rtol=1e-6)


def test_coupling_gain_scales_signal():
    p1 = ChannelPreset(name="c", gain_db=-60.0, seed=1, body_coupling_gain=1.0)
    p4 = ChannelPreset(name="c", gain_db=-60.0, seed=1, body_coupling_gain=4.0)
    clean = make_clean()
    t1 = apply_channel(clean, p1, FS).samples
    t4 = apply_channel(clean, p4, FS).samples
    assert np.allclose(t4, 4.0 * t1, rtol=1e-6)


def test_fm_interferers_visible_raw_and_removed_by_bandpass():
    preset = get_preset("open-space-3m")
    clean = make_clean()
    trace = apply_channel(clean, preset, FS)
    spec = np.abs(np.fft.rfft(trace.samples.astype(np.float64)))
    freqs = np.fft.rfftfreq(trace.samples.size, 1 / FS)
    fm = (freqs >= 88e6) & (freqs <= 108e6)
    band = (freqs >= 10e6) & (freqs <= 18e6)
    assert spec[fm].max() > spec[band].max()  # interference dominates raw

    filtered = bandpass(trace.samples, FS)
    fspec = np.abs(np.fft.rfft(filtered))
    in_band_peak = fspec[band].max()
    out_band_peak = fspec[fm].max()
    assert out_band_peak < in_band_peak * 10 ** (-40 / 20)


def test_interferer_band_placement():
    for name in available_presets():
        preset = get_preset(name)
        for interferer in preset.interferers:
            lo = interferer.center_hz - interferer.bandwidth_hz / 2
            hi = interferer.center_hz + interferer.bandwidth_hz / 2
            in_fm = 88e6 <= lo and hi <= 108e6
            mobile = interferer.center_hz >= 600e6
            assert in_fm or mobile


def test_mobile_tone_omitted_when_rate_too_low():
    intf = Interferer(740e6, 0.0, 1e-6)
    preset = ChannelPreset(name="m", gain_db=0.0, interferers=(intf,), seed=2)
    clean = make_clean()
    trace = apply_channel(clean, preset, FS)  # 740 MHz > Nyquist guard at 250 MS/s
    assert np.allclose(trace.samples, clean.astype(np.float32), atol=0)


# --- glitches ------------------------------------------------------------


def test_inject_zero_glitches_is_identity(identity_preset):
    trace = apply_channel(make_clean(), identity_preset, FS)
    assert inject_glitch(trace, 0) is trace


def test_glitch_amplitude_exceeds_robust_max(identity_preset):
    trace = apply_channel(make_clean(), identity_preset, FS)
    robust = np.percentile(np.abs(trace.samples), 99.0)
    glitched = inject_glitch(trace, 3, amplitude=(2.5, 4.0), seed=9)
    assert np.abs(glitched.samples).max() > 2.0 * robust


def test_glitch_at_given_time(identity_preset):
    trace = apply_channel(make_clean(), identity_preset, FS)
    t_g = 4.0e-6
    glitched = inject_glitch(trace, 1, amplitude=3.0, times=np.array([t_g]), seed=1)
    delta = np.abs(glitched.samples.astype(np.float64) - trace.samples)
    assert np.argmax(delta) == pytest.approx(t_g * FS, abs=2)


def test_glitch_count_validation(identity_preset):
    trace = apply_channel(make_clean(), identity_preset, FS)
    with pytest.raises(ValueError):
        inject_glitch(trace, -1)
    # One given time per burst: too few or too many is an error, not a
    # silently short or truncated burst list.
    for times in ([1e-6], [1e-6, 2e-6, 3e-6]):
        with pytest.raises(ValueError, match="times"):
            inject_glitch(trace, 2, times=np.array(times))
    with pytest.raises(ValueError, match="times"):
        inject_glitch(trace, 0, times=np.array([1e-6]))


def _builtin_interferers():
    found = {}
    for name in available_presets():
        for interferer in get_preset(name).interferers:
            found.setdefault(interferer, None)
    return list(found)


@pytest.mark.parametrize("rate", [100e6, 250e6, 500e6])
def test_interference_matches_per_tone_oracle(rate):
    # Angle addition moves the phase out of the cosine's argument, so the
    # sum differs from cos(wt + phase) in its last bits: the gate is
    # 1e-12 of the interferer's amplitude, in float64.
    interferers = _builtin_interferers()
    guard = 0.48 * rate
    # A tone above the guard draws no phase; a comb draws 16 even when the
    # guard drops all of them (every builtin comb at 100 MS/s).
    assert any(i.bandwidth_hz <= 0 and i.center_hz >= guard for i in interferers)
    assert any(i.bandwidth_hz > 0 for i in interferers)
    n = clean_waveform(KEYS[0], sample_rate=rate).size
    for interferer in interferers:
        amp = np.sqrt(2.0 * interferer.power)
        for seed in range(3):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _interference(interferer, n, rate, rng)
            want = interference_oracle(interferer, n, rate, oracle_rng)
            assert got.shape == want.shape == (n,)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * amp
            # Same draws: the noise and glitch streams that follow are unchanged.
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("name", available_presets())
def test_synth_dataset_within_one_float32_step_of_per_tone_synthesis(name, monkeypatch):
    # The float32 gate: every sample lies within np.spacing of the trace's
    # peak, as synthesized with the per-tone oracle in place of the tables.
    preset = get_preset(name)
    traces = synth_dataset(list(KEYS), preset, repeats=1, master_seed=3)
    monkeypatch.setattr(channel, "_interference", interference_oracle)
    per_tone = synth_dataset(list(KEYS), preset, repeats=1, master_seed=3)
    for trace, want in zip(traces, per_tone):
        assert trace.samples.shape == want.samples.shape
        step = np.spacing(np.abs(want.samples).max())
        assert np.all(np.abs(trace.samples - want.samples) <= step)


def _matvec_interference(interferer, n, sample_rate, rng):
    """_interference as one matvec per table, whatever the tone count, with
    the tables built from the direct formula on every call."""
    guard = 0.48 * sample_rate
    if interferer.bandwidth_hz <= 0:
        if interferer.center_hz >= guard:
            return np.zeros(n)
        freqs = np.array([interferer.center_hz])
    else:
        half = interferer.bandwidth_hz / 2
        freqs = np.linspace(
            interferer.center_hz - half, interferer.center_hz + half, channel.COMB_TONES
        )
    phases = rng.uniform(0, 2 * np.pi, freqs.size)
    amp = np.sqrt(2.0 * interferer.power / freqs.size)
    keep = freqs < guard
    arg = 2 * np.pi * freqs[keep][:, None] * (np.arange(n) / sample_rate)
    cos_t, sin_t = np.cos(arg), np.sin(arg)
    return (amp * np.cos(phases[keep])) @ cos_t - (amp * np.sin(phases[keep])) @ sin_t


def test_trace_lengths_a_few_samples_apart_share_one_interference_plan():
    # A key's trace is 3,000 or 3,021 samples long: both round up to one
    # plan per interferer, and the slice each takes equals the tables
    # built for its own length.
    rate = 250e6
    lengths = sorted({clean_waveform(key, rate).size for key in KEYS})
    assert lengths == [3000, 3021]
    interferers = _builtin_interferers()
    assert any(i.bandwidth_hz > 0 for i in interferers)
    channel._interference_plan.cache_clear()
    for interferer in interferers:
        for n in lengths:
            _interference(interferer, n, rate, np.random.default_rng(1))
    info = channel._interference_plan.cache_info()
    assert (info.misses, info.hits) == (len(interferers), len(interferers))
    for interferer in interferers:
        plan = channel._interference_plan(interferer, 3072, rate)
        if plan is None:  # a tone above the Nyquist guard has no tables
            continue
        tones, keep, _, cos_t, sin_t = plan
        half = interferer.bandwidth_hz / 2
        freqs = np.linspace(interferer.center_hz - half, interferer.center_hz + half, tones)
        for n in lengths:
            arg = 2 * np.pi * freqs[keep][:, None] * (np.arange(n) / rate)
            assert np.array_equal(cos_t[:, :n], np.cos(arg))
            assert np.array_equal(sin_t[:, :n], np.sin(arg))
    assert channel._interference_plan.cache_info().misses == len(interferers)


@pytest.mark.parametrize("rate", [100e6, 250e6, 500e6])
def test_single_tone_interference_is_the_matvec_bit_for_bit(rate):
    guard = 0.48 * rate
    bw = 15e6
    # A comb whose lowest tone alone lies below the guard keeps one tone too.
    edge_comb = Interferer(guard - bw / 30 + bw / 2, bw, 2e-10)
    tone = Interferer(0.3 * rate, 0.0, 1e-9)
    interferers = [*_builtin_interferers(), edge_comb, tone]
    # A tone, a comb and a tone above the guard, each from its cached plan.
    assert any(i.bandwidth_hz <= 0 and i.center_hz >= guard for i in interferers)
    assert any(i.bandwidth_hz > 0 for i in interferers)
    n = clean_waveform(KEYS[0], sample_rate=rate).size
    for interferer in interferers:
        _interference(interferer, n, rate, np.random.default_rng(9))
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _interference(interferer, n, rate, rng)
            want = _matvec_interference(interferer, n, rate, ref_rng)
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_glitch_signs_are_rng_choice_bit_for_bit():
    # The signs take the values and the stream that rng.choice takes.
    for seed in range(3000):
        count = seed % 23 + (seed % 7 == 0) * 200
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        idx, factors, signs = _draw_glitches(count, (2.5, 4.0), rng, None, 3000, FS)
        assert np.array_equal(idx, ref.integers(1, 2999, size=count))
        assert np.array_equal(factors, ref.uniform(2.5, 4.0, size=count))
        assert np.array_equal(signs, ref.choice([-1.0, 1.0], size=count))
        assert signs.dtype == np.float64
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("rate", [100e6, 250e6, 500e6])
def test_glitch_burst_is_the_direct_formula(rate):
    for amplitude in (1.0, -3.7, 0.5, 2.5e-4):
        burst = _glitch_burst(amplitude, rate)
        assert np.array_equal(burst, glitch_burst_oracle(amplitude, rate))
        burst += 1.0  # a caller's burst is its own: the cached shape is untouched
    assert np.array_equal(_glitch_burst(1.0, rate), glitch_burst_oracle(1.0, rate))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 101, 3000, 3021])
def test_robust_max_is_the_numpy_percentile_bit_for_bit(n, dtype):
    rng = np.random.default_rng(n)
    inputs = [
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),  # many equal values
        np.zeros(n),
        np.r_[np.zeros(n - 1), -2.5],  # a 0 percentile falls back to the max
    ]
    for x in inputs:
        x = x.astype(dtype)
        before = x.copy()
        got = _robust_max(x)
        assert type(got) is float
        assert got == robust_max_oracle(x)
        assert np.array_equal(x, before)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -250e6])
def test_trace_rejects_a_sample_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(ValueError, match="sample rate must be finite and > 0"):
        channel.EmanationTrace(np.zeros(8), rate)


@pytest.mark.parametrize("rate", [True, np.True_])
def test_trace_rejects_a_bool_sample_rate(rate):
    with pytest.raises(TypeError, match="sample rate must be a number"):
        channel.EmanationTrace(np.zeros(8), rate)


@pytest.mark.parametrize("name", ["seed", "repeat"])
@pytest.mark.parametrize("value", [True, np.True_, 5.0, "5"])
def test_trace_rejects_a_seed_or_repeat_that_is_no_integer(name, value):
    with pytest.raises(TypeError, match=f"{name} must be an integer or None"):
        channel.EmanationTrace(np.zeros(8), FS, **{name: value})


def test_trace_stores_numpy_integer_seed_and_repeat_as_int():
    trace = channel.EmanationTrace(np.zeros(8), FS, seed=np.int64(5), repeat=np.uint8(2))
    assert (trace.seed, trace.repeat) == (5, 2)
    assert type(trace.seed) is int and type(trace.repeat) is int


@pytest.mark.parametrize("shape", [(2, 3000), (2, 3), (1, 8)])
def test_trace_rejects_samples_that_are_not_one_dimensional(shape):
    with pytest.raises(ValueError, match=re.escape(f"1-D, got shape {shape}")):
        channel.EmanationTrace(np.zeros(shape), FS)


def test_inject_glitch_on_a_trace_with_no_samples_adds_nothing():
    empty = channel.EmanationTrace(np.zeros(0, dtype=np.float32), FS)
    assert _robust_max(empty.samples) == 0.0
    assert inject_glitch(empty, 2) == empty


@pytest.mark.parametrize("base_amplitude", [None, 0.02])
def test_inject_glitch_equals_two_copy_path(base_amplitude):
    traces = synth_dataset(
        list(KEYS[::7]), get_preset("open-space-3m"), repeats=1, master_seed=12
    )
    for i, trace in enumerate(traces):
        before = trace.samples.copy()
        for count in (1, 2, 8):
            seed = i * 7919 + count
            got = inject_glitch(trace, count, seed=seed, base_amplitude=base_amplitude)
            want = inject_glitch_oracle(
                trace, count, seed=seed, base_amplitude=base_amplitude
            )
            assert got == want
        assert np.array_equal(trace.samples, before)


@pytest.mark.parametrize("name", available_presets())
def test_synth_dataset_equals_per_trace_channel_composition(name):
    # One construction per trace, repeats outermost, each from its own
    # (master seed, key, repeat) stream.
    preset = get_preset(name)
    keys = list(KEYS[::5])
    traces = synth_dataset(keys, preset, repeats=2, master_seed=41)
    expected = [
        apply_channel(clean_waveform(key), preset, ground_truth=key, stream=(41, r))
        for r in range(2)
        for key in keys
    ]
    assert traces == expected


def _mixed_presets():
    """The ladder, two glitch presets, identity, and presets that share a
    rung's seed but change one impairment field, or keep them all and
    change only the signal scale (glitch amplitude follows each preset's
    own signal peak)."""
    ladder = [get_preset(f"open-space-{d}m") for d in ("0.5", "2.5", "3", "3.8")]
    office = get_preset("office-12m")
    bursty = replace(office, name="bursty", glitch_rate=3.0)
    return [
        *ladder,
        office,
        get_preset("building-9.4m"),
        get_preset("identity"),
        replace(ladder[2], name="near-3m", gain_db=-70.0, shielding_db=6.0),
        replace(ladder[3], name="quiet", noise_density=1e-9),
        replace(ladder[0], name="no-fm", interferers=ladder[0].interferers[:2]),
        bursty,
        replace(bursty, name="bursty-far", gain_db=-90.0, body_coupling_gain=2.0),
        replace(bursty, name="bursty-hot", glitch_amp=(5.0, 6.0)),
    ]


@pytest.mark.parametrize("rate", [250e6, 500e6])
@pytest.mark.parametrize("master_seed", [7, None])
def test_synth_datasets_equal_one_dataset_per_preset(master_seed, rate):
    presets = _mixed_presets()
    keys = list(KEYS[::9])
    units = synth_units(keys, presets, repeats=2, sample_rate=rate, master_seed=master_seed)
    datasets = [list(traces) for traces in zip(*units)]
    assert len(datasets) == len(presets)
    for preset, traces in zip(presets, datasets):
        seed = preset.seed if master_seed is None else master_seed
        alone = [
            apply_channel(
                clean_waveform(key, rate), preset, rate, ground_truth=key, stream=(seed, r)
            )
            for r in range(2)
            for key in keys
        ]
        assert traces == alone
        assert synth_dataset(keys, preset, 2, rate, master_seed) == alone
    # The bursty preset shares office-12m's seed, noise and interferers,
    # so only its glitches tell its traces apart: some were drawn.
    bursty, office = datasets[-3], datasets[4]
    assert sum(not np.array_equal(b.samples, o.samples) for b, o in zip(bursty, office)) > 5


def test_apply_channel_stream_is_the_stream_it_records():
    # The recorded seed and repeat always name the stream the samples came
    # from: default_rng([seed, key index, repeat]) with a stream, else
    # default_rng(preset seed) and no repeat.
    key = KEYS[9]
    clean = clean_waveform(key)
    preset = replace(
        get_preset("office-12m"), interferers=(), glitch_rate=0.0, seed=505
    )
    sigma = preset.noise_density * np.sqrt(FS / 2.0)

    def noisy(rng):
        noise = rng.normal(0.0, sigma, clean.size)
        return (clean * preset.signal_scale + noise).astype(np.float32)

    trace = apply_channel(clean, preset, ground_truth=key, stream=(7, 3))
    assert (trace.seed, trace.repeat) == (7, 3)
    assert np.array_equal(trace.samples, noisy(np.random.default_rng([7, key.index, 3])))
    plain = apply_channel(clean, preset, ground_truth=key)
    assert (plain.seed, plain.repeat) == (505, None)
    assert np.array_equal(plain.samples, noisy(np.random.default_rng(505)))


def test_apply_channel_stream_needs_a_key():
    preset, key = get_preset("office-12m"), KEYS[9]
    with pytest.raises(ValueError, match="stream"):
        apply_channel(clean_waveform(key), preset, stream=(7, 0))


# --- datasets ------------------------------------------------------------


def test_synth_dataset_shape():
    keys = [key_by_label(c) for c in "abc"]
    preset = get_preset("open-space-3m")
    traces = synth_dataset(keys, preset, repeats=2)
    assert len(traces) == 6
    assert [t.ground_truth.label for t in traces] == ["a", "b", "c", "a", "b", "c"]


def test_synth_dataset_reproducible():
    keys = [key_by_label("q")]
    preset = get_preset("open-space-3.8m")
    a = synth_dataset(keys, preset, repeats=2)
    b = synth_dataset(keys, preset, repeats=2)
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)


def test_synth_dataset_fresh_noise_per_trace():
    keys = [key_by_label("q")]
    preset = get_preset("open-space-3.8m")
    traces = synth_dataset(keys, preset, repeats=2)
    assert not np.array_equal(traces[0].samples, traces[1].samples)


def test_synth_dataset_rejects_empty():
    with pytest.raises(ValueError):
        synth_dataset([], get_preset("identity"))


# --- presets -------------------------------------------------------------


def test_required_presets_exist():
    names = set(available_presets())
    assert {
        "open-space-0.5m",
        "open-space-2.5m",
        "open-space-3m",
        "open-space-3.8m",
        "office-12m",
        "building-9.4m",
    } <= names


def test_preset_ladder_follows_free_space_falloff():
    g38 = get_preset("open-space-3.8m").gain_db
    assert g38 == pytest.approx(KNEE_GAIN_DB, abs=1e-6)
    for d, name in ((0.5, "open-space-0.5m"), (2.5, "open-space-2.5m"),
                    (3.0, "open-space-3m")):
        assert get_preset(name).gain_db == pytest.approx(
            distance_to_gain_db(d), abs=2e-3
        )


def test_preset_validation():
    with pytest.raises(ValueError):
        ChannelPreset(name="bad", body_coupling_gain=5.0)
    with pytest.raises(ValueError):
        ChannelPreset(name="bad", shielding_db=31.0)
    with pytest.raises(ValueError):
        ChannelPreset(name="bad", glitch_rate=-0.1)
    with pytest.raises(ValueError):
        ChannelPreset(name="bad", noise_density=-4e-9)
    for bandwidth, power in ((0.0, -1e-12), (-1e6, 1e-12)):
        with pytest.raises(ValueError):
            ChannelPreset(name="bad", interferers=(Interferer(95e6, bandwidth, power),))
    for glitch_amp in ((4.0, 2.5), (-1.0, 2.0)):
        with pytest.raises(ValueError):
            ChannelPreset(name="bad", glitch_rate=50.0, glitch_amp=glitch_amp)
    # Every number is a finite int or float (no bool), the seed a
    # non-negative int and the name a string.
    for field, value in (
        ("gain_db", "loud"), ("gain_db", True), ("noise_density", None),
        ("seed", "abc"), ("seed", 1.5), ("seed", True), ("name", 3),
        ("glitch_amp", (2.5, "4")), ("interferers", (Interferer(95e6, 0.0, "x"),)),
    ):
        with pytest.raises((TypeError, ValueError)):
            ChannelPreset(**{"name": "bad", field: value})
    for field, value in (
        ("gain_db", math.nan), ("gain_db", math.inf), ("glitch_rate", math.inf),
        ("glitch_rate", math.nan), ("shielding_db", math.nan), ("seed", -1),
        ("glitch_amp", (2.5, math.inf)),
        ("interferers", (Interferer(math.nan, 0.0, 1e-12),)),
    ):
        with pytest.raises(ValueError):
            ChannelPreset(**{"name": "bad", field: value})


def test_preset_seed_takes_any_integer_but_a_bool():
    # A NumPy integer seed is stored as the int it equals; anything else
    # that is no integer is a TypeError, as for EmanationTrace's seed.
    base = get_preset("office-12m")
    preset = replace(base, seed=np.int64(3))
    assert type(preset.seed) is int and preset == replace(base, seed=3)
    assert type(preset.to_dict()["seed"]) is int
    clean = clean_waveform(KEYS[0])
    assert apply_channel(clean, preset) == apply_channel(clean, replace(base, seed=3))
    for seed in (True, np.bool_(True), 2.0, np.float64(2.0), "2", None):
        with pytest.raises(TypeError):
            replace(base, seed=seed)
    for seed in (-1, np.int64(-1)):
        with pytest.raises(ValueError):
            replace(base, seed=seed)


def test_preset_at_every_limit_synthesizes_finite_samples():
    # Each magnitude at its limit, together: every sample stays finite in
    # float32, and one step past any limit is refused with its name.
    limits = channel.PRESET_LIMITS
    power = limits["interferer power"]
    preset = ChannelPreset(
        name="loud", gain_db=limits["gain_db"], noise_density=limits["noise_density"],
        glitch_rate=limits["glitch_rate"],
        glitch_amp=(limits["glitch_amp"], limits["glitch_amp"]), body_coupling_gain=4.0,
        interferers=(Interferer(14e6, 0.0, power), Interferer(14e6, 4e6, power)),
    )
    for rate in (40e6, 250e6):
        (trace,) = synth_dataset([KEYS[0]], preset, repeats=1, master_seed=1, sample_rate=rate)
        assert np.isfinite(trace.samples).all()
    past = {
        "gain_db": {"gain_db": 2 * limits["gain_db"]},
        "noise_density": {"noise_density": 2 * limits["noise_density"]},
        "glitch_rate": {"glitch_rate": 2 * limits["glitch_rate"]},
        "glitch_amp": {"glitch_amp": (2.5, 2 * limits["glitch_amp"])},
        "interferer power": {"interferers": (Interferer(14e6, 0.0, 2 * power),)},
    }
    assert past.keys() == limits.keys()
    for name, fields in past.items():
        with pytest.raises(ValueError, match=f"{name} must be <="):
            ChannelPreset(name="bad", **fields)


def test_unknown_preset_lists_available():
    with pytest.raises(UnknownPresetError) as err:
        get_preset("open-space-99m")
    assert "open-space-3.8m" in str(err.value)


def test_preset_roundtrip_via_dict():
    preset = get_preset("office-12m")
    again = ChannelPreset.from_dict(preset.to_dict())
    assert again == preset


def test_preset_from_dict_uses_dataclass_defaults():
    assert ChannelPreset.from_dict({"name": "bare"}) == ChannelPreset(name="bare")
