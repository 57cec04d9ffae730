"""Independent reference implementations used only to check the package.

The CRC oracle is classic polynomial long division over GF(2), written
MSB-first with an explicit dividend array: structurally unrelated to the
package's reflected shift/table implementations. Seeding with all ones is
realized by XOR-ing the first w dividend bits; the complemented remainder
is read off MSB-first and reversed into the package's LSB-first integer
convention.

The edge, radiation and interference oracles are the straightforward
per-slot, per-edge and per-tone loops: walk the line states comparing each
with its predecessor, add one pulse at a time into the output window, and
evaluate each tone's cosine at its own phase.

The envelope reference is the detector's filter applied the textbook way:
`bandpass` convolves with the production taps (`_bandpass_taps`) and
`amplitude_envelope` takes |hilbert(.)|, the composition the fused batch
envelope is checked against.

The detection oracle is the single-trace detector: its own fused
bandpass-envelope, one percentile, one find_peaks, and every anchor grid
scored against every reference through a 3-D elementwise `!=` tensor.

`match` scores a given edge series, shifted by up to +/-offset_search
slots, against every reference through the production scoring (the
references' mismatch_weights and the detector's `_agreement`):
the slot-flip tolerance check (acceptance criterion 8) corrupts reference
series directly, with no trace to detect from.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sp_signal
from scipy.fft import next_fast_len

from emanakey.bits import DIFFERENTIAL_LEVEL, LineState
from emanakey.channel import (
    DEFAULT_PAD_S,
    DEFAULT_SAMPLE_RATE,
    GLITCH_BURST_FREQ_HZ,
    GLITCH_BURST_SIGMA_S,
    Interferer,
    PulseShape,
)
from emanakey.detector import (
    AMPLITUDE,
    ANCHOR_CANDIDATES,
    DEFAULT_CONFIG,
    FLOOR,
    DetectionResult,
    _agreement,
    _bandpass_taps,
)
from emanakey.edges import EdgeSeries, ReferenceSet
from emanakey.errors import NoSignalError, SampleRateError
from emanakey.frames import Frame


def _long_division(bits: list[int], poly_msb_first: list[int], width: int) -> list[int]:
    dividend = list(bits) + [0] * width
    for i in range(min(width, len(dividend))):
        dividend[i] ^= 1  # all-ones initial remainder
    for i in range(len(bits)):
        if dividend[i]:
            for j, p in enumerate(poly_msb_first):
                dividend[i + j] ^= p
    return dividend[len(bits) :]


def crc5_oracle(bits: list[int]) -> int:
    """CRC5 (x^5+x^2+1) as an LSB-first integer, complemented."""
    remainder = _long_division(list(bits), [1, 0, 0, 1, 0, 1], 5)
    wire = [1 - b for b in remainder]  # complement, MSB-first == wire order
    value = 0
    for i, b in enumerate(wire):
        value |= b << i
    return value


def crc16_oracle_bits(bits: list[int]) -> int:
    """CRC16 (x^16+x^15+x^2+1) as an LSB-first integer, complemented."""
    poly = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1]
    remainder = _long_division(list(bits), poly, 16)
    wire = [1 - b for b in remainder]
    value = 0
    for i, b in enumerate(wire):
        value |= b << i
    return value


def crc16_oracle(payload: bytes) -> int:
    bits = [(byte >> i) & 1 for byte in payload for i in range(8)]
    return crc16_oracle_bits(bits)


def stuff_oracle(bits: list[int]) -> list[int]:
    """Bit stuffing by regex-free scanning, kept deliberately naive."""
    out: list[int] = []
    ones = 0
    for b in bits:
        out.append(b)
        ones = ones + 1 if b == 1 else 0
        if ones == 6:
            out.append(0)
            ones = 0
    return out


def agreement_score_oracle(detected: list[int], reference: list[int]) -> float:
    """Plain per-slot agreement over the reference length, zero-padded."""
    agree = 0
    for i, ref_bit in enumerate(reference):
        det_bit = detected[i] if i < len(detected) else 0
        agree += det_bit == ref_bit
    return agree / len(reference)


def edge_signs_oracle(frame: Frame, window: str = "capture") -> np.ndarray:
    """Per-slot sign of the level change, walking states from idle J."""
    states = frame.slot_states(window)
    prev = LineState.J
    signs = np.zeros(len(states), dtype=np.int8)
    for i, s in enumerate(states):
        if s != prev:
            delta = DIFFERENTIAL_LEVEL[s] - DIFFERENTIAL_LEVEL[prev]
            signs[i] = 1 if delta > 0 else -1
        prev = s
    return signs


def radiate_oracle(
    source: Frame | EdgeSeries,
    pulse: PulseShape | None = None,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    pad_before: float = DEFAULT_PAD_S,
    pad_after: float = DEFAULT_PAD_S,
) -> np.ndarray:
    """One pulse per edge, added into the window edge by edge."""
    pulse = pulse or PulseShape()
    if isinstance(source, Frame):
        signs = edge_signs_oracle(source)
        bit = source.bit_time
    else:
        signs = source.slots.astype(np.int8)
        bit = source.bit_width
    n = int(round((signs.size * bit + pad_before + pad_after) * sample_rate))
    out = np.zeros(n, dtype=np.float64)
    half = pulse.support_sigmas * pulse.sigma
    for slot in np.flatnonzero(signs):
        t_edge = pad_before + slot * bit
        lo = max(0, int(math.ceil((t_edge - half) * sample_rate)))
        hi = min(n, int(math.floor((t_edge + half) * sample_rate)) + 1)
        if lo >= hi:
            continue
        t_local = np.arange(lo, hi) / sample_rate - t_edge
        out[lo:hi] += float(signs[slot]) * pulse.waveform(t_local)
    return out


def interference_oracle(
    interferer: Interferer, n: int, sample_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Tone or 16-tone comb, one cosine per tone at its drawn phase."""
    nyquist_guard = 0.48 * sample_rate
    t = np.arange(n) / sample_rate
    if interferer.bandwidth_hz <= 0:
        if interferer.center_hz >= nyquist_guard:
            return np.zeros(n)
        amp = math.sqrt(2.0 * interferer.power)
        phase = rng.uniform(0, 2 * np.pi)
        return amp * np.cos(2 * np.pi * interferer.center_hz * t + phase)
    m = 16
    freqs = np.linspace(
        interferer.center_hz - interferer.bandwidth_hz / 2,
        interferer.center_hz + interferer.bandwidth_hz / 2,
        m,
    )
    phases = rng.uniform(0, 2 * np.pi, m)
    amp = math.sqrt(2.0 * interferer.power / m)
    out = np.zeros(n)
    for f, ph in zip(freqs, phases):
        if f < nyquist_guard:
            out += amp * np.cos(2 * np.pi * f * t + ph)
    return out


def glitch_burst_oracle(amplitude: float, sample_rate: float) -> np.ndarray:
    """The burst evaluated directly: amplitude * Gaussian * carrier."""
    half = int(round(4 * GLITCH_BURST_SIGMA_S * sample_rate))
    t = np.arange(-half, half + 1) / sample_rate
    env = np.exp(-0.5 * (t / GLITCH_BURST_SIGMA_S) ** 2)
    return amplitude * env * np.cos(2 * np.pi * GLITCH_BURST_FREQ_HZ * t)


def robust_max_oracle(x: np.ndarray) -> float:
    """The 99th percentile of |x| by np.percentile, or max |x| when that is 0."""
    r = float(np.percentile(np.abs(x), 99.0))
    return r if r > 0 else float(np.max(np.abs(x), initial=0.0))


def inject_glitch_oracle(trace, count, amplitude=(2.5, 4.0), seed=0, base_amplitude=None):
    """inject_glitch at seeded-random positions, copying the samples twice
    (to float64, then before adding) and building each burst directly."""
    if count == 0:
        return trace
    lo_amp, hi_amp = (amplitude, amplitude) if np.isscalar(amplitude) else amplitude
    if base_amplitude is None:
        base_amplitude = robust_max_oracle(trace.samples)
    rng = np.random.default_rng(seed)
    samples = trace.samples.astype(np.float64)
    out = samples.copy()
    idx = rng.integers(1, max(2, samples.size - 1), size=count)
    factors = rng.uniform(lo_amp, hi_amp, size=count)
    signs = rng.choice([-1.0, 1.0], size=count)
    for i, f, s in zip(idx, factors, signs):
        burst = glitch_burst_oracle(s * f * base_amplitude, trace.sample_rate)
        half = burst.size // 2
        lo, hi = max(0, i - half), min(samples.size, i + half + 1)
        out[lo:hi] += burst[half - (i - lo) : half + (hi - i)]
    return replace(trace, samples=out)


def bandpass(samples: np.ndarray, sample_rate: float, cfg=DEFAULT_CONFIG) -> np.ndarray:
    """Linear-phase FIR bandpass, group delay removed by centered convolution."""
    if sample_rate <= 2 * cfg.band_high:
        raise SampleRateError(
            f"sample rate {sample_rate:g} too low for a {cfg.band_high:g} Hz band edge"
        )
    taps = _bandpass_taps(sample_rate, cfg.band_low, cfg.band_high)
    x = np.asarray(samples, dtype=np.float64)
    if x.size:  # each row's mean is removed first, as the detector does
        x = x - x.mean()
    return sp_signal.fftconvolve(x, taps, mode="same")


def amplitude_envelope(filtered: np.ndarray) -> np.ndarray:
    """Instantaneous amplitude of the band-limited signal."""
    analytic = sp_signal.hilbert(np.asarray(filtered, dtype=np.float64))
    return np.abs(analytic)


def _band_envelope_oracle(x: np.ndarray, sample_rate: float, cfg) -> np.ndarray:
    taps = _bandpass_taps(sample_rate, cfg.band_low, cfg.band_high)
    n = x.size
    if n:
        x = x - x.mean()
    nfft = next_fast_len(n + taps.size - 1)
    spec = np.fft.rfft(x, nfft) * np.fft.rfft(taps, nfft)
    full = np.zeros(nfft, dtype=np.complex128)
    full[0] = spec[0]
    half = nfft // 2
    full[1:half] = 2.0 * spec[1:half]
    full[half] = spec[half] if nfft % 2 == 0 else 2.0 * spec[half]
    analytic = np.fft.ifft(full)
    start = (taps.size - 1) // 2
    return np.abs(analytic[start : start + n])


def detect_oracle(trace, refs: ReferenceSet, cfg=DEFAULT_CONFIG) -> DetectionResult:
    """One trace: envelope, normalize, floor+peaks, every grid vs every key."""
    x = np.asarray(trace.samples, dtype=np.float64)
    envelope = _band_envelope_oracle(x, trace.sample_rate, cfg)
    s_max = np.percentile(np.abs(envelope), 100.0 * (1.0 - cfg.skip_fraction))
    if s_max <= 0.0:
        raise NoSignalError("all-zero or constant trace cannot be normalized")
    a = AMPLITUDE
    normalized = np.clip(envelope * (a / s_max), -a, a)
    y = np.abs(normalized)
    y[y < FLOOR] = 0.0
    bit = refs.bit_width
    min_sep = max(1, int(round(cfg.min_peak_separation * bit * trace.sample_rate)))
    peaks, _ = sp_signal.find_peaks(y, height=FLOOR, distance=min_sep)
    if peaks.size == 0:
        raise NoSignalError("no peaks above the amplitude floor")
    peak_times = peaks / trace.sample_rate
    if peak_times.size < cfg.min_peaks:
        raise NoSignalError(
            f"only {peak_times.size} peaks detected (< {cfg.min_peaks}); "
            "trace carries no usable signal"
        )

    keys = sorted(refs.entries, key=lambda k: k.index)
    lengths = np.array([len(refs[k]) for k in keys])
    width = int(lengths.max())
    ref_bool = np.zeros((len(keys), width), dtype=bool)
    for row, key in enumerate(keys):
        ref_bool[row, : lengths[row]] = refs[key].slots.astype(bool)
    in_range = np.arange(width)[None, :] < lengths[:, None]

    n_anchors = min(ANCHOR_CANDIDATES, peak_times.size)
    offsets_1d = np.arange(-cfg.offset_search, cfg.offset_search + 1)
    anchors = np.repeat(peak_times[:n_anchors], offsets_1d.size)
    anchor_slots = np.tile(offsets_1d, n_anchors)
    pos = (peak_times[None, :] - anchors[:, None]) / bit
    near = np.rint(pos)
    idx = near.astype(np.int64) + anchor_slots[:, None]
    ok = (np.abs(pos - near) <= cfg.proximity_window) & (idx >= 0) & (idx < width)
    grid_slots = np.zeros((anchors.size, width), dtype=bool)
    rows = np.broadcast_to(np.arange(anchors.size)[:, None], idx.shape)
    grid_slots[rows[ok], idx[ok]] = True

    mism = (grid_slots[:, None, :] != ref_bool[None, :, :]) & in_range[None, :, :]
    scores = 1.0 - mism.sum(axis=2) / lengths[None, :]
    best_grid = np.argmax(scores, axis=0)
    best_per_key = scores[best_grid, np.arange(len(keys))]
    best_offsets = anchor_slots[best_grid]

    order = np.argsort(-best_per_key, kind="stable")
    winner, runner = int(order[0]), int(order[1])
    g = int(best_grid[winner])
    detected = EdgeSeries(
        slots=grid_slots[g, : lengths[winner]].astype(np.uint8),
        bit_width=bit,
        origin=float(anchors[g]) - int(anchor_slots[g]) * bit,
    )
    return DetectionResult(
        key=keys[winner],
        score=float(best_per_key[winner]),
        runner_up=keys[runner],
        runner_up_score=float(best_per_key[runner]),
        detected_edges=detected,
        alignment_offset=int(best_offsets[winner]),
        tie=bool(best_per_key[winner] == best_per_key[runner]),
    )


def match(detected: EdgeSeries, refs: ReferenceSet, cfg=DEFAULT_CONFIG) -> DetectionResult:
    """Highest-agreement reference, searched over +/-offset_search shifts.

    Ties resolve to the lowest key index and are flagged.
    """
    width = refs.slot_matrix.shape[1]
    search = cfg.offset_search
    base = np.zeros(width + 2 * search, dtype=np.uint8)
    n = min(len(detected), width + search)
    base[search : search + n] = detected.slots[:n]
    shifts = np.arange(-search, search + 1)
    # Window j of the padded series is the series shifted by shifts[j].
    windows = sliding_window_view(base, width).astype(np.float64)
    scores = _agreement(windows @ refs.mismatch_weights, refs)
    best = np.argmax(scores, axis=0)  # first maximal shift per key
    best_per_key = scores[best, np.arange(scores.shape[1])]
    keys = refs.keys_in_order()
    order = np.argsort(-best_per_key, kind="stable")  # stable: ties -> lowest index
    winner, runner = int(order[0]), int(order[1])
    return DetectionResult(
        key=keys[winner],
        score=float(best_per_key[winner]),
        runner_up=keys[runner],
        runner_up_score=float(best_per_key[runner]),
        detected_edges=detected,
        alignment_offset=int(shifts[best[winner]]),
        tie=bool(best_per_key[winner] == best_per_key[runner]),
    )
