"""The numpy kernels in emanakey.dsp against the SciPy routines they replace."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy import signal as sp_signal
from scipy import special

import emanakey
from emanakey import KEYS, build_keystroke_transaction, get_preset, simulate_probed_waveform
from emanakey import dsp, edges
from emanakey.channel import inject_glitch, synth_dataset
from emanakey.detector import (
    DEFAULT_CONFIG,
    FILTER_TAPS,
    FLOOR,
    _band_envelope,
    _bandpass_taps,
    _normalize,
)

CFG = DEFAULT_CONFIG
# The rates the band design was checked at, from just above the band's
# Nyquist limit up to 10 GHz.
RATES = (37e6, 40e6, 48e6, 60e6, 100e6, 123.456e6, 250e6, 500e6, 1e9, 10e9)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _random_rows(seed, count=400):
    """Rows rich in what find_peaks must get right.

    Small integer levels make plateaus and equal heights; NaN, +inf and
    -inf land at random, at the ends too; lengths run from 0 up.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(0, 80))
        x = rng.integers(0, int(rng.integers(2, 6)), size=n).astype(np.float64)
        if rng.random() < 0.5:
            x += rng.normal(scale=0.1, size=n) * (rng.random(n) < 0.3)
        for special_value in (np.nan, np.inf, -np.inf):
            if n and rng.random() < 0.3:
                x[rng.integers(0, n, size=int(rng.integers(1, 4)))] = special_value
        yield x


@pytest.mark.parametrize("seed", range(6))
def test_find_peaks_is_scipy_on_random_rows(seed):
    rng = np.random.default_rng(100 + seed)
    for x in _random_rows(seed):
        height = [None, 0.0, 1.0, 2.5, np.inf][int(rng.integers(0, 5))]
        distance = [None, 1, 2, 3.5, 7, 20][int(rng.integers(0, 6))]
        want = sp_signal.find_peaks(x, height=height, distance=distance)[0]
        got = dsp.find_peaks(x, height=height, distance=distance)
        assert _same_bits(got, want), (x.tolist(), height, distance)


def test_find_peaks_is_scipy_on_long_noise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=20_000)
    x[::97] = np.round(x[::97])  # a few ties in height
    for height in (None, 0.5):
        for distance in (None, 1, 14, 100.5):
            want = sp_signal.find_peaks(x, height=height, distance=distance)[0]
            assert _same_bits(dsp.find_peaks(x, height=height, distance=distance), want)


def test_clipped_plateaus_of_equal_height_keep_scipys_pick():
    # Plateaus of one height closer than the distance: the argsort order
    # of their heights decides which survives.
    x = np.zeros(200)
    for start in range(5, 190, 9):
        x[start : start + 3] = 3.3
    x[100:103] = 3.0
    want = sp_signal.find_peaks(x, distance=14)[0]
    assert want.size > 1
    assert _same_bits(dsp.find_peaks(x, distance=14), want)


def _chunks():
    """Floored envelope blocks of detector chunks, as _peak_rows searches them.

    Glitches clip the envelope to A; the 3.8 m preset's noise gives close
    maxima that the distance rule thins.
    """
    for preset, glitches, seed in (("open-space-3m", 0, 3), ("open-space-3m", 4, 5),
                                   ("open-space-3.8m", 0, 9), ("office-12m", 2, 11)):
        traces = synth_dataset(
            list(KEYS[:32]), get_preset(preset), repeats=1, master_seed=seed
        )
        if glitches:
            traces = [inject_glitch(t, glitches, seed=i) for i, t in enumerate(traces)]
        by_length = {}
        for trace in traces:
            by_length.setdefault(trace.samples.size, []).append(trace.samples)
        rows = max(by_length.values(), key=len)
        n = rows[0].size
        block, scratch = _band_envelope(rows, 250e6, CFG)
        _normalize(block[:, :n], CFG, scratch)
        y = block[:, :n]
        y *= y >= FLOOR
        yield block.copy(), n


def test_local_maxima_and_distance_rule_are_scipy_on_detector_chunks():
    min_sep = 14
    thinned = 0
    for block, n in _chunks():
        flat = block.reshape(-1)
        maxima = dsp.local_maxima(flat)
        assert _same_bits(maxima, sp_signal.find_peaks(flat)[0])
        for row in block[:, :n]:
            peaks = dsp.local_maxima(row)
            want = sp_signal.find_peaks(row, distance=min_sep)[0]
            got = peaks[dsp.keep_by_distance(peaks, row[peaks], min_sep)]
            assert _same_bits(got, want)
            thinned += want.size < peaks.size
    assert thinned > 0, "no row here exercises the distance rule"


def test_find_peaks_is_scipy_on_pipeline_derivatives():
    fs = edges.REFERENCE_SAMPLE_RATE
    taps = edges._wired_lowpass(fs)
    for key in KEYS:
        frame = build_keystroke_transaction(key)
        wave = simulate_probed_waveform(frame, fs)
        deriv = np.abs(np.gradient(np.convolve(wave, taps, mode="same")))
        height = edges.WIRED_PEAK_THRESHOLD * np.percentile(deriv, 99.0)
        for distance in (None, 14):
            want = sp_signal.find_peaks(deriv, height=height, distance=distance)[0]
            got = dsp.find_peaks(deriv, height=height, distance=distance)
            assert _same_bits(got, want), key.label


def test_i0_is_scipy_special_i0():
    x = np.linspace(0.0, 5.0, 20_001)
    want = special.i0(x)
    got = np.array([dsp._i0(v) for v in x.tolist()])
    assert _same_bits(got, want)


@pytest.mark.parametrize("fs", RATES)
def test_band_taps_and_their_spectrum_are_scipys(fs):
    center = 0.5 * (CFG.band_low + CFG.band_high)
    sigma_f = (CFG.band_high - CFG.band_low) / 2.0 / 0.65
    freqs = np.linspace(0.0, fs / 2.0, 4097)
    resp = np.exp(-0.5 * ((freqs - center) / sigma_f) ** 2)
    resp[np.abs(freqs - center) > 3.5 * sigma_f] = 0.0
    want = sp_signal.firwin2(FILTER_TAPS, freqs, resp, fs=fs, window=("kaiser", 5.0))
    got = _bandpass_taps(fs, CFG.band_low, CFG.band_high)
    assert _same_bits(got, want)
    nfft = dsp.next_fast_len(3000 + FILTER_TAPS - 1)
    assert _same_bits(np.fft.rfft(got, nfft), sp_fft.rfft(want, nfft))


@pytest.mark.parametrize("fs", RATES)
def test_lowpass_taps_are_scipy_firwin(fs):
    want = sp_signal.firwin(
        edges.WIRED_LOWPASS_TAPS, edges.WIRED_LOWPASS_CUTOFF_HZ, fs=fs
    )
    got = dsp.lowpass_taps(edges.WIRED_LOWPASS_TAPS, edges.WIRED_LOWPASS_CUTOFF_HZ, fs)
    assert _same_bits(got, want)


def test_next_fast_len_is_scipys():
    sizes = list(range(1, 20_001)) + [250_000, 250_000 + FILTER_TAPS - 1]
    for n in sizes:
        assert dsp.next_fast_len(n) == sp_fft.next_fast_len(n), n


def test_import_loads_no_scipy():
    code = (
        "import sys, emanakey, emanakey.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(emanakey.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"
