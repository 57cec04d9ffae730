"""Emanation-trace keystroke detector.

Pipeline: bandpass the trace to the 10-18 MHz emission band, normalize to
+/-3.3 V using the 99th-percentile amplitude (so a lone interference spike
cannot distort the scaling), zero everything below half amplitude, detect
peaks with a two-thirds-bit minimum separation, form a binary edge series
on a grid anchored at a detected peak, and return the reference with the
highest slot agreement.

Alignment has no hardware trigger to lean on, so the slot grid is anchored
at a detected peak and searched: the first few peaks are tried as anchor
candidates (a single early noise peak must not wreck the grid) and the
anchor's slot index is searched over a small window. Every stage after
normalization is scale-free, so detection results are invariant to trace
scaling.

detect_batch is the one implementation: it runs same-length traces as
rows of a matrix, and detect is detect_batch on one trace. Every row gets
the bits a lone trace gets.
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from .channel import EmanationTrace
from .edges import EdgeSeries, ReferenceSet, _read_only
from .errors import (
    DegenerateTraceError,
    FileFormatError,
    NoSignalError,
    SampleRateError,
)
from .keys import KeyId


_INT_FIELDS = ("offset_search", "anchor_candidates", "filter_taps", "min_peaks")


@dataclass(frozen=True)
class DetectorConfig:
    """Detection parameters; defaults are the operating values."""

    band_low: float = 10e6  # Hz
    band_high: float = 18e6  # Hz
    amplitude: float = 3.3  # V, normalization target A
    skip_fraction: float = 0.01  # top fraction ignored when scaling
    zero_floor: float | None = None  # volts; defaults to A/2
    min_peak_separation: float = 2.0 / 3.0  # fraction of a bit width
    proximity_window: float = 1.0 / 3.0  # fraction of a bit width
    offset_search: int = 2  # +/- slots around each anchor
    anchor_candidates: int = 3  # leading peaks tried as grid anchor
    bit_rate: float = 12e6
    filter_taps: int = 321
    min_peaks: int = 10  # fewer detected peaks -> no-signal error

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "zero_floor" and value is None:
                continue
            integer = f.name in _INT_FIELDS
            if isinstance(value, bool) or not isinstance(
                value, int if integer else (int, float)
            ):
                kind = "an integer" if integer else "a number"
                raise TypeError(f"{f.name} must be {kind}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in ("band_low", "amplitude", "bit_rate", "anchor_candidates", "filter_taps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("offset_search", "min_peaks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.zero_floor is not None and self.zero_floor <= 0:
            raise ValueError("zero_floor must be > 0 or None")
        if self.band_low >= self.band_high:
            raise ValueError("band_low must be below band_high")
        if not 0 < self.skip_fraction < 0.5:
            raise ValueError("skip_fraction must lie in (0, 0.5)")
        if self.filter_taps % 2 == 0:
            raise ValueError("filter_taps must be odd (linear phase, type I)")

    @property
    def floor(self) -> float:
        return self.amplitude / 2.0 if self.zero_floor is None else self.zero_floor

    @property
    def bit_width(self) -> float:
        return 1.0 / self.bit_rate

    def to_file(self, path: str | Path) -> None:
        doc = {key: getattr(self, name) for name, key in _FILE_KEYS}
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def from_file(cls, path: str | Path) -> "DetectorConfig":
        """A missing key takes the default; a file that is no valid config
        raises FileFormatError."""
        field_of = {key: name for name, key in _FILE_KEYS}
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(doc, dict) or not doc.keys() <= field_of.keys():
                raise ValueError(f"expected an object keyed by {sorted(field_of)}")
            return cls(**{field_of[key]: value for key, value in doc.items()})
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: not a detector config: {exc}") from exc


# (field, key in the config file), in file order.
_FILE_KEYS = (
    ("band_low", "band_low_hz"),
    ("band_high", "band_high_hz"),
    ("amplitude", "amplitude_v"),
    ("skip_fraction", "skip_fraction"),
    ("zero_floor", "zero_floor_v"),
    ("min_peak_separation", "min_peak_separation_bits"),
    ("proximity_window", "proximity_window_bits"),
    ("offset_search", "offset_search_slots"),
    ("anchor_candidates", "anchor_candidates"),
    ("bit_rate", "bit_rate_bps"),
    ("filter_taps", "filter_taps"),
    ("min_peaks", "min_peaks"),
)

DEFAULT_CONFIG = DetectorConfig()


@dataclass(frozen=True)
class DetectionResult:
    """Winning key with score, runner-up and diagnostic alignment info."""

    key: KeyId
    score: float
    runner_up: KeyId
    runner_up_score: float
    detected_edges: EdgeSeries
    alignment_offset: int
    tie: bool = False

    @property
    def margin(self) -> float:
        return self.score - self.runner_up_score


@lru_cache(maxsize=8)
def _bandpass_taps(
    sample_rate: float, band_low: float, band_high: float, taps: int
) -> np.ndarray:
    # Gaussian-cored magnitude response with -3 dB points at the band
    # edges. A flat-top design truncates the edge-pulse spectrum sharply
    # and its time-domain ringing bleeds each pulse into neighboring bit
    # slots above the A/2 floor; Gaussian-on-Gaussian leaves no ringing.
    center = 0.5 * (band_low + band_high)
    sigma_f = (band_high - band_low) / 2.0 / 0.65  # band edges at ~-1.9 dB
    nyquist = sample_rate / 2.0
    freqs = np.linspace(0.0, nyquist, 4097)
    resp = np.exp(-0.5 * ((freqs - center) / sigma_f) ** 2)
    resp[freqs > center + 3.5 * sigma_f] = 0.0
    resp[freqs < center - 3.5 * sigma_f] = 0.0
    return sp_signal.firwin2(
        taps, freqs, resp, fs=sample_rate, window=("kaiser", 5.0)
    )


def bandpass(
    samples: np.ndarray, sample_rate: float, cfg: DetectorConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Linear-phase FIR bandpass, group delay removed by centered convolution."""
    if sample_rate <= 2 * cfg.band_high:
        raise SampleRateError(
            f"sample rate {sample_rate:g} too low for a {cfg.band_high:g} Hz band edge"
        )
    taps = _bandpass_taps(sample_rate, cfg.band_low, cfg.band_high, cfg.filter_taps)
    x = np.asarray(samples, dtype=np.float64)
    return sp_signal.fftconvolve(x, taps, mode="same")


def amplitude_envelope(filtered: np.ndarray) -> np.ndarray:
    """Instantaneous amplitude of the band-limited signal.

    Peak decisions run on the envelope, not on the oscillating samples:
    the carrier puts |x| maxima on a half-period comb, and noise can hop
    the apparent maximum one lobe sideways, out of the slot proximity
    window. The envelope has a single smooth lobe per edge burst.
    """
    analytic = sp_signal.hilbert(np.asarray(filtered, dtype=np.float64))
    return np.abs(analytic)


@lru_cache(maxsize=16)
def _analytic_filter(
    n: int, sample_rate: float, band_low: float, band_high: float, taps: int
) -> tuple[int, np.ndarray]:
    """FFT size and bandpass spectrum with the analytic-signal weights folded in.

    The weights keep DC (and Nyquist, for an even size) and double every
    other positive frequency; scaling by 2 is exact, so folding them into
    the filter changes no bit of the product.
    """
    h = _bandpass_taps(sample_rate, band_low, band_high, taps)
    nfft = sp_fft.next_fast_len(n + h.size - 1)
    weights = np.full(nfft // 2 + 1, 2.0)
    weights[0] = 1.0
    if nfft % 2 == 0:
        weights[-1] = 1.0
    return nfft, _read_only(sp_fft.rfft(h, nfft) * weights)


class _Workspace:
    """One thread's chunk buffers at one FFT size, reused chunk after chunk.

    A 32-row chunk needs about 4 MB of temporaries. Blocks that large go
    back to the OS when freed, so fresh ones would be faulted in again on
    every chunk. Each buffer is nfft wide, so any trace length that maps
    to this FFT size fits. A thread keeps a workspace between calls only
    if each buffer has at most _KEPT_CELLS cells.
    """

    def __init__(self, rows: int, nfft: int):
        self.nfft = nfft
        self.padded = np.empty((rows, nfft))  # input rows, zero-padded
        self.spectrum = np.empty((rows, nfft), dtype=complex)
        self.envelope = np.empty((rows, nfft))


_local = threading.local()


def _workspace(rows: int, nfft: int) -> _Workspace:
    """A workspace with at least ``rows`` rows of FFT size ``nfft``.

    This thread's kept workspace serves the chunk if it fits; it is
    replaced when the FFT size changes or a larger chunk arrives. A chunk
    above _KEPT_CELLS gets a workspace of its own, freed with the call,
    and the kept one stays.
    """
    ws = getattr(_local, "workspace", None)
    if ws is not None and ws.nfft == nfft and ws.padded.shape[0] >= rows:
        return ws
    ws = _Workspace(rows, nfft)
    if rows * nfft <= _KEPT_CELLS:
        _local.workspace = ws
    return ws


def _band_envelope(
    rows: Sequence[np.ndarray], sample_rate: float, cfg: DetectorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Fused bandpass + envelope of same-length rows: one rfft, one ifft.

    Numerically equivalent (away from the trace ends) to
    amplitude_envelope(bandpass(x)); each row gets the bits a chunk of one
    row gets. Returns the (rows, n) envelope and a scratch array of its
    shape, both views into a workspace that this thread's next call may
    overwrite; the scratch is the padded input, dead once transformed.
    """
    if sample_rate <= 2 * cfg.band_high:
        raise SampleRateError(
            f"sample rate {sample_rate:g} too low for a {cfg.band_high:g} Hz band edge"
        )
    b, n = len(rows), len(rows[0])
    nfft, h_spec = _analytic_filter(
        n, sample_rate, cfg.band_low, cfg.band_high, cfg.filter_taps
    )
    ws = _workspace(b, nfft)
    # Zero-padded float64 rows: the bits rfft(x, nfft) pads x to.
    x = ws.padded[:b]
    for padded, samples in zip(x, rows):
        padded[:n] = samples
    x[:, n:] = 0.0  # an earlier chunk may have been longer
    spectrum = ws.spectrum[:b]
    half = spectrum[:, : nfft // 2 + 1]
    np.fft.rfft(x, out=half)
    half *= h_spec
    # The zeroed negative half makes the ifft the analytic signal.
    spectrum[:, nfft // 2 + 1 :] = 0.0
    np.fft.ifft(spectrum, out=spectrum)
    start = (cfg.filter_taps - 1) // 2  # 'same' alignment, group delay removed
    envelope = np.abs(spectrum[:, start : start + n], out=ws.envelope[:b, :n])
    return envelope, x[:, :n]


def _percentile_rows(x: np.ndarray, q: float) -> np.ndarray:
    """np.percentile(x, q, axis=-1, keepdims=True) of finite x, bit for bit.

    numpy's default "linear" method reads each sorted row at the virtual
    index (n - 1) * (q / 100) and interpolates its two neighbours with
    numpy's _lerp arithmetic, which takes the upper neighbour as base once
    the fraction reaches 0.5. Only those two order statistics are needed,
    so one partition replaces the sort; x is partitioned in place.
    """
    n = x.shape[-1]
    virtual = (n - 1) * (q / 100)
    lo = min(math.floor(virtual), n - 1)
    hi = min(lo + 1, n - 1)
    gamma = virtual - lo
    x.partition((lo, hi), axis=-1)
    below, above = x[..., lo : lo + 1], x[..., hi : hi + 1]
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


def _normalize(
    x: np.ndarray, cfg: DetectorConfig, scratch: np.ndarray | None = None
) -> np.ndarray:
    """normalize() along the last axis, in place; returns the rows with no scale.

    Rows with no scale (all-zero or empty) become zeros instead of raising.
    ``scratch``, shaped like x, takes the partitioned |x|; by default a
    fresh array does.
    """
    if x.shape[-1] == 0:
        return np.ones(x.shape[:-1], dtype=bool)
    s_max = _percentile_rows(
        np.abs(x, out=scratch), 100.0 * (1.0 - cfg.skip_fraction)
    )
    dead = s_max <= 0.0
    x *= np.divide(cfg.amplitude, s_max, out=np.zeros_like(s_max), where=~dead)
    np.clip(x, -cfg.amplitude, cfg.amplitude, out=x)
    return dead[..., 0]


def normalize(
    samples: np.ndarray, cfg: DetectorConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Scale so the 99th-percentile amplitude maps to A; clip to +/-A.

    Skipping the top fraction keeps a lone interference spike from
    deflating the scale; the spike itself is clipped to A.
    """
    normalized = np.array(samples, dtype=np.float64)
    if _normalize(normalized, cfg).any():
        raise DegenerateTraceError("all-zero or empty trace cannot be normalized")
    return normalized


def _peak_rows(
    normalized: np.ndarray, sample_rate: float, cfg: DetectorConfig
) -> list[np.ndarray]:
    """Peak times (s) of each row of |x| floored below A/2; rows may be empty.

    Takes |x| and floors it in place. Flooring leaves every sample at 0 or
    at least the floor, so each local maximum already clears it and
    find_peaks needs no height test.
    """
    y = np.abs(normalized, out=normalized)
    y *= y >= cfg.floor
    min_sep = max(
        1, int(round(cfg.min_peak_separation * cfg.bit_width * sample_rate))
    )
    return [sp_signal.find_peaks(row, distance=min_sep)[0] / sample_rate for row in y]


def threshold_and_peaks(
    normalized: np.ndarray,
    sample_rate: float,
    cfg: DetectorConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Peak times (s) of |x| after flooring values below A/2 to zero.

    No two peaks are closer than min_peak_separation of a bit width; the
    higher peak wins a conflict window.
    """
    y = np.array(normalized, dtype=np.float64)[None, :]
    (times,) = _peak_rows(y, sample_rate, cfg)
    if times.size == 0:
        raise NoSignalError("no peaks above the amplitude floor")
    return times


def form_edge_series(
    peak_times: np.ndarray,
    reference: EdgeSeries,
    cfg: DetectorConfig = DEFAULT_CONFIG,
) -> EdgeSeries:
    """Binary series over the reference's slot grid.

    The grid puts slot 0 at the first peak. A slot reads '1' when any
    peak lies within the proximity window of its boundary; peaks drift,
    so proximity rather than exact coincidence decides.
    """
    peak_times = np.asarray(peak_times, dtype=np.float64)
    if peak_times.size == 0:
        raise NoSignalError("cannot form an edge series from zero peaks")
    anchor = peak_times[0]
    bit = reference.bit_width
    slots = _grid_slots(
        peak_times[None, :], np.array([[anchor]], dtype=np.float64),
        np.array([0]), bit, len(reference), cfg.proximity_window,
    )
    return EdgeSeries(slots=slots[0, 0], bit_width=bit, origin=anchor)


def _grid_slots(
    peak_times: np.ndarray,
    anchors: np.ndarray,
    anchor_slots: np.ndarray,
    bit_width: float,
    n_slots: int,
    proximity: float,
) -> np.ndarray:
    """Slot vectors of every row's (anchor, anchor_slot) grids: (rows, grids, n_slots).

    ``peak_times`` is (rows, peaks) and ``anchors`` (rows, grids); NaN pads
    ragged rows and fills no slot. Grid j puts slot ``anchor_slots[j]`` at
    its anchor.
    """
    pos = peak_times[:, None, :] - anchors[:, :, None]
    pos /= bit_width
    pos += anchor_slots[:, None]
    idx = np.rint(pos)
    pos -= idx
    ok = np.abs(pos, out=pos) <= proximity
    ok &= idx >= 0
    ok &= idx < n_slots
    idx += _grid_base(anchors.shape, n_slots)
    slots = np.zeros(anchors.shape + (n_slots,), dtype=bool)
    slots.reshape(-1)[idx[ok].astype(np.intp)] = True
    return slots


@lru_cache(maxsize=64)
def _grid_base(shape: tuple[int, int], n_slots: int) -> np.ndarray:
    """Flat offset of each (row, grid) slot vector: (rows, grids, 1) float64."""
    base = np.arange(shape[0] * shape[1], dtype=np.float64) * n_slots
    return _read_only(base.reshape(shape + (1,)))


@lru_cache(maxsize=8)
def _anchor_grids(
    anchor_candidates: int, offset_search: int
) -> tuple[np.ndarray, np.ndarray]:
    """The anchoring peak and anchor slot of each grid: two (grids,) int arrays.

    Grid j anchors slot ``slots[j]`` at peak ``peaks[j]``; each of the
    leading anchor_candidates peaks is tried at every slot within
    +/-offset_search of slot 0.
    """
    offsets = np.arange(-offset_search, offset_search + 1)
    peaks = np.repeat(np.arange(anchor_candidates), offsets.size)
    return _read_only(peaks), _read_only(np.tile(offsets, anchor_candidates))


def _scores(slot_rows: np.ndarray, refs: ReferenceSet) -> np.ndarray:
    """Agreement of each padded slot row with every reference: (rows, keys).

    Mismatches are counted over each reference's own slot range, as
    |g in range| + |r| - 2 g.r in one matmul, and normalized by reference
    length so stuffing-length differences do not bias the match.
    """
    rows = np.asarray(slot_rows, dtype=np.float64)
    mismatches = rows @ refs.mismatch_weights + refs.edge_counts
    return 1.0 - mismatches / refs.lengths


def match(
    detected: EdgeSeries,
    refs: ReferenceSet,
    cfg: DetectorConfig = DEFAULT_CONFIG,
) -> DetectionResult:
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
    scores = _scores(sliding_window_view(base, width), refs)
    best = np.argmax(scores, axis=0)  # first maximal shift per key
    best_per_key = scores[best, np.arange(scores.shape[1])]
    return _result_from_scores(
        refs.keys_in_order(), best_per_key, shifts[best], detected_series=detected
    )


def _result_from_scores(
    keys: list[KeyId],
    scores: np.ndarray,
    offsets: np.ndarray,
    detected_series: EdgeSeries,
) -> DetectionResult:
    order = np.argsort(-scores, kind="stable")  # stable: ties -> lowest index
    winner, runner = int(order[0]), int(order[1])
    tie = bool(scores[winner] == scores[runner])
    return DetectionResult(
        key=keys[winner],
        score=float(scores[winner]),
        runner_up=keys[runner],
        runner_up_score=float(scores[runner]),
        detected_edges=detected_series,
        alignment_offset=int(offsets[winner]),
        tie=tie,
    )


def _match_peaks(
    peak_lists: list[np.ndarray], refs: ReferenceSet, cfg: DetectorConfig
) -> list[DetectionResult]:
    """Best (anchor, offset) grid per key for each row of peak times.

    The first anchor_candidates peaks of a row are tried as grid anchors,
    each at every slot within +/-offset_search of slot 0.
    """
    keys = refs.keys_in_order()
    lengths = refs.lengths
    width = refs.slot_matrix.shape[1]
    bit = 1.0 / refs.bit_rate
    anchor_peaks, anchor_slots = _anchor_grids(cfg.anchor_candidates, cfg.offset_search)

    # NaN pads ragged rows, and rows with fewer peaks than anchor candidates.
    n_peaks = max(cfg.anchor_candidates, max(p.size for p in peak_lists))
    peaks = np.full((len(peak_lists), n_peaks), np.nan)
    for row, times in enumerate(peak_lists):
        peaks[row, : times.size] = times
    anchors = peaks[:, anchor_peaks]
    grids = _grid_slots(peaks, anchors, anchor_slots, bit, width, cfg.proximity_window)
    scores = _scores(grids.reshape(-1, width), refs).reshape(*anchors.shape, len(keys))
    scores[np.isnan(anchors)] = -np.inf  # a grid anchored at a missing peak

    best_grid = np.argmax(scores, axis=1)  # (rows, keys): first maximal grid
    best = scores.max(axis=1)
    results = []
    for row in range(len(peak_lists)):
        winner = int(np.argmax(best[row]))
        g = int(best_grid[row, winner])
        detected = EdgeSeries(
            slots=grids[row, g, : lengths[winner]],
            bit_width=bit,
            origin=float(anchors[row, g]) - int(anchor_slots[g]) * bit,
        )
        results.append(
            _result_from_scores(keys, best[row], anchor_slots[best_grid[row]], detected)
        )
    return results


def _detect_rows(
    rows: list[np.ndarray],
    sample_rate: float,
    refs: ReferenceSet,
    cfg: DetectorConfig,
) -> list[DetectionResult | NoSignalError]:
    """detect_batch on one chunk of same-length rows sampled at one rate.

    The envelope is scaled, floored and searched for peaks in place, in
    this thread's workspace.
    """
    envelope, scratch = _band_envelope(rows, sample_rate, cfg)
    dead = _normalize(envelope, cfg, scratch)
    empty = envelope.shape[1] == 0
    outcomes: list[DetectionResult | NoSignalError | None] = []
    live: list[int] = []
    peak_lists: list[np.ndarray] = []
    for row, times in enumerate(_peak_rows(envelope, sample_rate, cfg)):
        if dead[row]:
            outcomes.append(NoSignalError(
                f"{'empty' if empty else 'all-zero'} trace cannot be normalized"
            ))
        elif times.size == 0:
            outcomes.append(NoSignalError("no peaks above the amplitude floor"))
        elif times.size < cfg.min_peaks:
            outcomes.append(NoSignalError(
                f"only {times.size} peaks detected (< {cfg.min_peaks}); "
                "trace carries no usable signal"
            ))
        else:
            outcomes.append(None)
            live.append(row)
            peak_lists.append(times)
    if live:
        for row, result in zip(live, _match_peaks(peak_lists, refs, cfg)):
            outcomes[row] = result
    return outcomes


# Rows per chunk. Small chunks keep the complex FFT temporaries in cache
# and peak memory flat; on 2 vCPUs a sweep round's 630 traces took
# 0.24-0.34 ms each at 32 rows and 0.30-0.36 at 64, whose peak RSS was
# 3 MB higher, and one 1,024-row batch ran the envelope slower per row
# than a single trace.
_CHUNK_ROWS = 32

# Cells (rows x nfft) of the largest workspace a thread keeps between
# calls: a full chunk of sweep traces (nfft 3360) fits, at 32 bytes a
# cell about 4 MB. A larger chunk, such as one 250,000-sample capture,
# is rare enough to allocate per call and free with it.
_KEPT_CELLS = _CHUNK_ROWS * 4096


def detect_batch(
    traces: list[EmanationTrace],
    refs: ReferenceSet,
    cfg: DetectorConfig = DEFAULT_CONFIG,
) -> list[DetectionResult | NoSignalError]:
    """detect() for many traces: one result or NoSignalError per trace, in order.

    Traces are grouped by (length, sample rate), since both fix the FFT
    size, and each group is run in chunks of _CHUNK_ROWS rows: one
    rfft/ifft pair and one row-wise partition for the scale per chunk,
    find_peaks per row, and every row's anchor grids scored against every
    reference in one matmul. A lone trace takes the same path as a chunk
    of one row. A trace with no usable signal gets its NoSignalError in
    its own slot and does not fail the batch.
    """
    outcomes: list[DetectionResult | NoSignalError | None] = [None] * len(traces)
    groups: dict[tuple[int, float], list[int]] = {}
    for i, trace in enumerate(traces):
        groups.setdefault((trace.samples.size, trace.sample_rate), []).append(i)
    for (_, sample_rate), members in groups.items():
        for start in range(0, len(members), _CHUNK_ROWS):
            chunk = members[start : start + _CHUNK_ROWS]
            rows = [traces[i].samples for i in chunk]
            for i, outcome in zip(chunk, _detect_rows(rows, sample_rate, refs, cfg)):
                outcomes[i] = outcome
    return outcomes


def detect(
    trace: EmanationTrace,
    refs: ReferenceSet,
    cfg: DetectorConfig = DEFAULT_CONFIG,
) -> DetectionResult:
    """Full pipeline: bandpass, envelope, normalize, floor+peaks, align, match.

    One trace through detect_batch; raises NoSignalError when the trace
    carries no usable signal.
    """
    (outcome,) = detect_batch([trace], refs, cfg)
    if isinstance(outcome, NoSignalError):
        raise outcome
    return outcome
