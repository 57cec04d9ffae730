"""Emanation-trace keystroke detector.

Pipeline: remove the trace's mean, bandpass it to the 10-18 MHz emission
band, take its amplitude envelope, normalize to +/-3.3 V using the
99th-percentile amplitude (so a lone interference spike cannot distort the
scaling), zero everything below half amplitude, detect peaks with a
two-thirds-bit minimum separation, form a binary edge series on a grid
anchored at a detected peak, and return the reference with the highest
slot agreement.

Alignment has no hardware trigger to lean on, so the slot grid is anchored
at a detected peak and searched: the first three peaks are tried as anchor
candidates (a single early noise peak must not wreck the grid) and the
anchor's slot index is searched over a small window. The bit width that
spaces peaks and slots is the one every reference shares. Every stage
after normalization is relative to A, so detection results are invariant
to trace scaling.

detect_batch is the one implementation: it runs same-length traces as
rows of a matrix, and detect is detect_batch on one trace. It takes any
iterable of traces and owns the batching: buckets by (length, rate),
blocks of sixteen chunks detected as they fill, and chunks of rows.
Every row gets the bits a lone trace gets. Each stage runs once per
chunk of rows: one FFT pair per eight-row slice for the envelope, one
local-maxima pass over all rows (NaN between rows keeps peaks apart),
and one stacked matmul that scores every anchor at every offset, since
an anchor's offsets are one slot vector shifted by whole slots. A
batch's results are one Detections record of per-trace columns; indexing
it builds a trace's DetectionResult or NoSignalError, and no per-trace
object is made until then. A call with more than one chunk runs them on
a pool of worker threads, one per CPU the process may use, built on the
first such call; a call with one chunk, such as detect, runs it on the
calling thread. The heavy steps (FFT, partition, BLAS) release the
interpreter lock.

The filter design, FFT size and peak finder come from emanakey.dsp, numpy
ports of the SciPy routines that give the same bits; the package imports
numpy alone.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from .channel import EmanationTrace
from .dsp import (
    _percentile_rows,
    frequency_sampling_taps,
    keep_by_distance,
    local_maxima,
    next_fast_len,
)
from .edges import EdgeSeries, ReferenceSet, _read_only
from .errors import (
    ConfigError,
    DegenerateTraceError,
    FileFormatError,
    NoSignalError,
    SampleRateError,
)
from .frames import FULL_SPEED_BIT_RATE
from .keys import KeyId


# The scale rule is fixed: normalize to +/-A, then zero everything below A/2.
AMPLITUDE = 3.3  # V, normalization target A
FLOOR = AMPLITUDE / 2.0
# Odd length: linear phase (type I), so the 'same' envelope starts
# (FILTER_TAPS - 1) // 2 = 160 samples into the filtered signal.
FILTER_TAPS = 321
ANCHOR_CANDIDATES = 3  # leading peaks tried as grid anchor

_INT_FIELDS = ("offset_search", "min_peaks")


@dataclass(frozen=True)
class DetectorConfig:
    """Detection parameters; defaults are the operating values.

    Spacings are fractions of a bit, whose width comes from the
    references.
    """

    band_low: float = 10e6  # Hz
    band_high: float = 18e6  # Hz
    skip_fraction: float = 0.01  # top fraction ignored when scaling
    min_peak_separation: float = 2.0 / 3.0  # fraction of a bit width
    proximity_window: float = 1.0 / 3.0  # fraction of a bit width
    offset_search: int = 2  # +/- slots around each anchor; below the slot width
    min_peaks: int = 10  # fewer detected peaks -> no-signal error

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            integer = f.name in _INT_FIELDS
            if isinstance(value, bool) or not isinstance(
                value, int if integer else (int, float)
            ):
                kind = "an integer" if integer else "a number"
                raise TypeError(f"{f.name} must be {kind}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in ("band_low", "min_peak_separation", "proximity_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("offset_search", "min_peaks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.band_low >= self.band_high:
            raise ValueError("band_low must be below band_high")
        if not 0 < self.skip_fraction < 0.5:
            raise ValueError("skip_fraction must lie in (0, 0.5)")

    @classmethod
    def from_file(cls, path: str | Path) -> "DetectorConfig":
        """A missing key takes the default; a file that is no valid config
        raises FileFormatError."""
        field_of = {key: name for name, key in _FILE_KEYS}
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError(f"expected an object keyed by {sorted(field_of)}")
            unknown = sorted(doc.keys() - field_of.keys())
            if unknown:
                raise ValueError(f"unknown keys {unknown}; known: {sorted(field_of)}")
            return cls(**{field_of[key]: value for key, value in doc.items()})
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: not a detector config: {exc}") from exc


# (field, key in the config file).
_FILE_KEYS = (
    ("band_low", "band_low_hz"),
    ("band_high", "band_high_hz"),
    ("skip_fraction", "skip_fraction"),
    ("min_peak_separation", "min_peak_separation_bits"),
    ("proximity_window", "proximity_window_bits"),
    ("offset_search", "offset_search_slots"),
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


# No-signal reasons, indexed by Detections.reason; 0 is a detection.
_NO_SIGNAL = (
    None,
    "empty trace cannot be normalized",
    "all-zero or constant trace cannot be normalized",
    "no peaks above the amplitude floor",
    "only {peaks} peaks detected (< {min_peaks}); trace carries no usable signal",
)
_EMPTY, _ALL_ZERO, _NO_PEAKS, _FEW_PEAKS = range(1, len(_NO_SIGNAL))


def _no_signal_columns(rows: int, width: int) -> dict[str, np.ndarray]:
    """Detections columns of ``rows`` traces with no signal, reason not yet set."""
    return {
        "key": np.full(rows, -1),
        "score": np.zeros(rows),
        "runner_up": np.full(rows, -1),
        "runner_up_score": np.zeros(rows),
        "anchor": np.zeros(rows),
        "offset": np.zeros(rows, dtype=int),
        "tie": np.zeros(rows, dtype=bool),
        "reason": np.zeros(rows, dtype=int),
        "peaks": np.zeros(rows, dtype=int),
        "slots": np.zeros((rows, width), dtype=np.uint8),
    }


_COLUMNS = tuple(_no_signal_columns(0, 0))  # Detections' per-trace columns


@dataclass(eq=False)
class Detections(Sequence):
    """detect_batch's results as columns, one row per trace.

    ``key`` and ``runner_up`` are positions in refs.keys_in_order(), the
    references the rows were matched against. A row with no usable signal
    has a nonzero ``reason``, key and runner-up -1 and zero scores, so it
    counts as wrong with zero score and margin. ``slots`` holds the
    winner's 0/1 slot vector, zero-padded to the longest reference. Item i
    is the row's DetectionResult or NoSignalError, built on access; a
    slice is a record. A record equals a sequence of equal items, where two
    NoSignalErrors are equal when their messages are.
    """

    refs: ReferenceSet = field(repr=False)
    min_peaks: int
    key: np.ndarray
    score: np.ndarray
    runner_up: np.ndarray
    runner_up_score: np.ndarray
    anchor: np.ndarray  # time (s) of the peak that anchors the winner's grid
    offset: np.ndarray  # the grid's slot at the anchor: its alignment offset
    tie: np.ndarray
    reason: np.ndarray  # 0, or the index of the row's _NO_SIGNAL message
    peaks: np.ndarray  # peaks detected
    slots: np.ndarray  # (rows, max slots) uint8

    @property
    def margin(self) -> np.ndarray:
        return self.score - self.runner_up_score

    def __len__(self) -> int:
        return self.key.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, **{name: getattr(self, name)[i] for name in _COLUMNS})
        reason = self.reason[i]
        if reason:
            return NoSignalError(_NO_SIGNAL[reason].format(
                peaks=self.peaks[i], min_peaks=self.min_peaks
            ))
        keys, w, r = self.refs.keys_in_order(), int(self.key[i]), int(self.runner_up[i])
        offset = int(self.offset[i])
        return DetectionResult(
            key=keys[w],
            score=float(self.score[i]),
            runner_up=keys[r],
            runner_up_score=float(self.runner_up_score[i]),
            detected_edges=EdgeSeries(
                slots=self.slots[i, : self.refs.lengths[w]],
                bit_width=self.refs.bit_width,
                origin=float(self.anchor[i]) - offset * self.refs.bit_width,
            ),
            alignment_offset=offset,
            tie=bool(self.tie[i]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(_same_outcome, self, other))

    __hash__ = None


def _same_outcome(a, b) -> bool:
    if isinstance(a, NoSignalError):
        return type(a) is type(b) and a.args == b.args
    return a == b


@lru_cache(maxsize=8)
def _bandpass_taps(sample_rate: float, band_low: float, band_high: float) -> np.ndarray:
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
    return frequency_sampling_taps(FILTER_TAPS, freqs, resp, sample_rate, beta=5.0)


@lru_cache(maxsize=16)
def _analytic_filter(
    n: int, sample_rate: float, band_low: float, band_high: float
) -> tuple[int, np.ndarray]:
    """FFT size and bandpass spectrum with the analytic-signal weights folded in.

    The weights keep DC (and Nyquist, for an even size) and double every
    other positive frequency; scaling by 2 is exact, so folding them into
    the filter changes no bit of the product.
    """
    h = _bandpass_taps(sample_rate, band_low, band_high)
    nfft = next_fast_len(n + h.size - 1)
    weights = np.full(nfft // 2 + 1, 2.0)
    weights[0] = 1.0
    if nfft % 2 == 0:
        weights[-1] = 1.0
    return nfft, _read_only(np.fft.rfft(h, nfft) * weights)


_local = threading.local()


def _workspace(cells: int) -> np.ndarray:
    """A float64 buffer of at least ``cells`` cells for one chunk.

    A 32-row chunk needs about 1.3 MB of temporaries. Blocks that large go
    back to the OS when freed, so fresh ones would be faulted in again on
    every chunk. This thread's kept buffer serves any chunk it fits, at
    any FFT size, and a larger chunk replaces it; a chunk above _KEPT_CELLS
    gets a buffer freed with the call, and the kept one stays.
    """
    buffer = getattr(_local, "workspace", None)
    if buffer is not None and buffer.size >= cells:
        return buffer
    buffer = np.empty(cells)
    if cells <= _KEPT_CELLS:
        _local.workspace = buffer
    return buffer


# Rows per FFT slice: the complex spectra of a slice are the one scratch
# a chunk's envelope and scale pass through.
_SLICE_ROWS = 8


def _band_envelope(
    rows: Sequence[np.ndarray], sample_rate: float, cfg: DetectorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Fused mean removal, bandpass and envelope of same-length rows: one
    rfft, one ifft per slice of _SLICE_ROWS rows.

    Peaks are taken on the envelope, one smooth lobe per edge burst; the
    raw carrier's |x| maxima sit on a half-period comb that noise can hop.
    Numerically equivalent (away from the trace ends) to the reference
    amplitude_envelope(bandpass(x)) in tests/oracle.py; each row gets the
    bits a chunk of one row gets. Returns a (rows, n + 1) block that holds
    the envelope in its first n columns and NaN in the last, for
    _peak_rows, and a (slice rows, n) scratch for _normalize, both views
    into a buffer that this thread's next call may overwrite. The buffer
    holds the padded input rows, then one slice's complex spectra; each
    slice's envelope is written over input rows already transformed.
    """
    if sample_rate <= 2 * cfg.band_high:
        raise SampleRateError(
            f"sample rate {sample_rate:g} too low for a {cfg.band_high:g} Hz band edge"
        )
    b, n = len(rows), len(rows[0])
    nfft, h_spec = _analytic_filter(n, sample_rate, cfg.band_low, cfg.band_high)
    step = min(b, _SLICE_ROWS)
    cells = b * nfft
    buffer = _workspace(cells + 2 * step * nfft)
    # Zero-padded float64 rows: the bits rfft(x, nfft) pads x to.
    x = buffer[:cells].reshape(b, nfft)
    for padded, samples in zip(x, rows):
        padded[:n] = samples
    x[:, n:] = 0.0  # an earlier chunk may have been longer
    if n:  # each row's mean goes: the filter's low skirt passes DC on
        # A row's sum in one row-wise reduction has the bits of its own
        # sum, so each row gets x - x.mean(); a mean per row in the copy
        # loop cost 2-4x as much per chunk.
        x[:, :n] -= (np.add.reduce(x[:, :n], axis=1) / n)[:, None]
    spectra = buffer[cells : cells + 2 * step * nfft].view(complex).reshape(step, nfft)
    start = (FILTER_TAPS - 1) // 2  # 'same' alignment, group delay removed
    # Row r of the block ends at (r + 1)(n + 1) <= (r + 1) nfft, so a
    # slice's envelope lands on input rows its own rfft has read.
    block = buffer[: b * (n + 1)].reshape(b, n + 1)
    for lo in range(0, b, step):
        spectrum = spectra[: min(step, b - lo)]
        half = spectrum[:, : nfft // 2 + 1]
        np.fft.rfft(x[lo : lo + step], out=half)
        half *= h_spec
        # The zeroed negative half makes the ifft the analytic signal.
        spectrum[:, nfft // 2 + 1 :] = 0.0
        np.fft.ifft(spectrum, out=spectrum)
        np.abs(spectrum[:, start : start + n], out=block[lo : lo + step, :n])
    block[:, n] = np.nan
    scratch = buffer[cells : cells + step * n].reshape(step, n)
    return block, scratch


def _normalize(x: np.ndarray, cfg: DetectorConfig, scratch: np.ndarray) -> np.ndarray:
    """normalize() along the last axis, in place, but for its lower clip.

    The chunk path runs it on envelopes, which are >= 0 and need none.
    Returns the rows with no scale (all-zero or empty), which become zeros
    instead of raising. ``scratch``, (slice rows, n) for a (rows, n) x,
    takes the partitioned |x| of one slice of rows at a time.
    """
    if x.shape[-1] == 0:
        return np.ones(x.shape[:-1], dtype=bool)
    q = 100.0 * (1.0 - cfg.skip_fraction)
    s_max = np.empty((len(x), 1))
    step = len(scratch)
    for lo in range(0, len(x), step):
        rows = x[lo : lo + step]
        s_max[lo : lo + step] = _percentile_rows(np.abs(rows, out=scratch[: len(rows)]), q)
    dead = s_max <= 0.0
    x *= np.divide(AMPLITUDE, s_max, out=np.zeros_like(s_max), where=~dead)
    np.minimum(x, AMPLITUDE, out=x)
    return dead[..., 0]


def normalize(
    samples: np.ndarray, cfg: DetectorConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Scale one trace so its 99th-percentile amplitude maps to A; clip to +/-A.

    Skipping the top fraction keeps a lone interference spike from
    deflating the scale; the spike itself is clipped to A.
    """
    normalized = np.array(samples, dtype=np.float64)
    row = normalized.reshape(1, -1)  # a view
    if _normalize(row, cfg, np.empty_like(row)).any():
        raise DegenerateTraceError("all-zero or empty trace cannot be normalized")
    # np.clip's bits, without its call overhead.
    return np.maximum(normalized, -AMPLITUDE, out=normalized)


def _peak_rows(
    block: np.ndarray, n: int, sample_rate: float, bit_width: float, cfg: DetectorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Peak times (s) of each row of x >= 0 floored below A/2, and their counts.

    ``block`` holds x in its first n columns and NaN in the rest; x is
    floored in place. Flooring leaves every sample at 0 or at least the
    floor, so each local maximum already clears it and the peaks need no
    height test. One local_maxima pass runs over the whole block
    flattened: NaN compares false, so no peak or plateau runs from one row
    into the next, and each row gets the maxima a pass over it alone finds.
    The min-separation rule keeps every maximum of a row where no two lie
    closer than min_sep, so it runs only on the rows where two do, on
    those rows' maxima: find_peaks(row, distance=min_sep) would find the
    same maxima again.

    Times are (rows, peaks), NaN-padded, with at least ANCHOR_CANDIDATES
    columns; counts are (rows,).
    """
    y = block[:, :n]
    y *= y >= FLOOR
    maxima = local_maxima(block.reshape(-1))
    row_of, col = np.divmod(maxima, block.shape[1])
    counts = np.bincount(row_of, minlength=block.shape[0])
    times = np.full((block.shape[0], max(ANCHOR_CANDIDATES, counts.max())), np.nan)
    rank = np.arange(maxima.size) - np.searchsorted(row_of, row_of)
    times[row_of, rank] = col / sample_rate
    min_sep = max(1, int(round(cfg.min_peak_separation * bit_width * sample_rate)))
    close = maxima[1:] - maxima[:-1] < min_sep
    if np.count_nonzero(close):
        close &= row_of[1:] == row_of[:-1]
        # The rows are sorted, so each distinct one starts a run of equal
        # values; np.unique would import numpy.ma on its first call.
        rows = row_of[1:][close]
        for row in rows[np.diff(rows, prepend=-1) != 0].tolist():
            lo, hi = np.searchsorted(row_of, (row, row + 1))
            cols = col[lo:hi]
            kept = cols[keep_by_distance(cols, y[row, cols], min_sep)]
            times[row] = np.nan
            times[row, : kept.size] = kept / sample_rate
            counts[row] = kept.size
    return times, counts


def threshold_and_peaks(
    normalized: np.ndarray,
    sample_rate: float,
    cfg: DetectorConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Peak times (s) of |x| after flooring values below A/2 to zero.

    No two peaks are closer than min_peak_separation of a full-speed bit
    width; the higher peak wins a conflict window.
    """
    n = np.size(normalized)
    block = np.full((1, n + 1), np.nan)
    np.abs(normalized, out=block[0, :n])
    times, (count,) = _peak_rows(block, n, sample_rate, 1.0 / FULL_SPEED_BIT_RATE, cfg)
    if count == 0:
        raise NoSignalError("no peaks above the amplitude floor")
    return times[0, :count]


def _grid_slots(
    peak_times: np.ndarray,
    anchors: np.ndarray,
    anchor_slot: int,
    bit_width: float,
    n_slots: int,
    proximity: float,
) -> np.ndarray:
    """Slot vectors of every row's grids: (rows, anchors, n_slots) float32 0/1.

    ``peak_times`` is (rows, peaks) and ``anchors`` (rows, anchors); NaN
    pads ragged rows and fills no slot. Each grid puts slot ``anchor_slot``
    at its anchor. A peak p slots from the anchor fills slot
    rint(p) + anchor_slot when p lies within ``proximity`` of rint(p).
    p is rounded before ``anchor_slot`` is added, so the float rounding of
    p + anchor_slot cannot move a peak on the window's edge, and the grid of
    another anchor slot is this one shifted by whole slots.
    """
    pos = peak_times[:, None, :] - anchors[:, :, None]
    pos /= bit_width
    idx = np.rint(pos)
    pos -= idx
    ok = np.abs(pos, out=pos) <= proximity
    idx += anchor_slot
    np.greater_equal(idx, 0, out=ok, where=ok)
    np.less(idx, n_slots, out=ok, where=ok)
    idx += _grid_base(anchors.shape, n_slots)
    slots = np.zeros(anchors.shape + (n_slots,), dtype=np.float32)
    slots.reshape(-1)[idx[ok].astype(np.intp)] = 1.0
    return slots


@lru_cache(maxsize=64)
def _grid_base(shape: tuple[int, int], n_slots: int) -> np.ndarray:
    """Flat offset of each (row, grid) slot vector: (rows, grids, 1) float64."""
    base = np.arange(shape[0] * shape[1], dtype=np.float64) * n_slots
    return _read_only(base.reshape(shape + (1,)))


def _agreement(mismatches: np.ndarray, refs: ReferenceSet) -> np.ndarray:
    """Scores (..., keys) of slot rows g from g @ refs.mismatch_weights.

    Adding each reference's ones counts the slots where g and it disagree
    within its own length, |g in range| + |r| - 2 g.r; the count is
    normalized by reference length so stuffing-length differences do not
    bias the match.
    """
    return 1.0 - (mismatches + refs.edge_counts) / refs.lengths


def _match_peaks(
    peaks: np.ndarray, refs: ReferenceSet, bit: float, cfg: DetectorConfig
) -> dict[str, np.ndarray]:
    """Best (anchor, offset) grid per key for each row of NaN-padded peak times.

    The first ANCHOR_CANDIDATES peaks of a row are tried as grid anchors,
    each at every slot within +/-offset_search of slot 0. A peak fills the
    same slot, counted from its anchor, at every offset (see _grid_slots),
    so the grids of one anchor are one wide slot vector, over slots
    -offset_search to width + offset_search - 1, shifted by whole slots:
    each anchor places the row's peaks once, and one matmul with the
    references' shift table scores every offset. Ties resolve to the
    lowest key index and are flagged. Returns the rows' Detections
    columns but reason and peaks.
    """
    width = refs.slot_matrix.shape[1]
    search = cfg.offset_search
    n_offsets = 2 * search + 1
    rows = np.arange(len(peaks))
    anchors = peaks[:, :ANCHOR_CANDIDATES]

    wide = _grid_slots(
        peaks, anchors, search, bit, width + 2 * search, cfg.proximity_window
    )
    # One small GEMM per row, not one per chunk: each stays below the size
    # at which OpenBLAS spreads a call over threads of its own, which would
    # compete with the chunk workers. The counts are exact either way.
    mismatches = (wide @ refs.shift_table(search)).reshape(len(peaks), -1, len(refs))
    if cfg.min_peaks < ANCHOR_CANDIDATES:
        # A row may lack an anchor; a grid anchored at a missing peak never wins.
        mismatches.reshape(len(peaks), ANCHOR_CANDIDATES, n_offsets, -1)[
            np.isnan(anchors)
        ] = np.inf

    best = _agreement(mismatches.min(axis=1), refs)
    winner = np.argmax(best, axis=1)  # ties -> lowest index
    score = best[rows, winner]
    best[rows, winner] = -np.inf
    runner = np.argmax(best, axis=1)
    runner_score = best[rows, runner]
    # Within one key the score falls as mismatches rise, so the winner's
    # first maximal grid is its first grid with the fewest mismatches.
    anchor, o = np.divmod(np.argmin(mismatches[rows, :, winner], axis=1), n_offsets)
    offset = o - search
    # The grid at this offset is the anchor's wide vector from slot
    # search - offset on.
    slots = (search - offset)[:, None] + np.arange(width)
    return {
        "key": winner,
        "score": score,
        "runner_up": runner,
        "runner_up_score": runner_score,
        "anchor": anchors[rows, anchor],
        "offset": offset,
        "tie": score == runner_score,
        "slots": wide[rows[:, None], anchor[:, None], slots].astype(np.uint8),
    }


def _detect_rows(
    rows: list[np.ndarray],
    sample_rate: float,
    refs: ReferenceSet,
    cfg: DetectorConfig,
) -> dict[str, np.ndarray]:
    """detect_batch on one chunk of same-length rows sampled at one rate.

    The envelope is scaled, floored and searched for peaks in place, in
    this thread's buffer. Peak spacing and the slot grid both take the
    bit width from the references. Returns the rows' Detections columns.
    """
    bit = refs.bit_width
    n = len(rows[0])
    block, scratch = _band_envelope(rows, sample_rate, cfg)
    dead = _normalize(block[:, :n], cfg, scratch)
    peaks, counts = _peak_rows(block, n, sample_rate, bit, cfg)
    (live,) = np.nonzero(~dead & (counts >= max(cfg.min_peaks, 1)))
    if live.size == len(rows):  # the usual chunk: the match gives every column
        columns = _match_peaks(peaks, refs, bit, cfg)
        columns["reason"] = np.zeros(len(rows), dtype=int)
    else:
        # Only live rows are matched: most rows of a glitch sweep may be
        # silent, and matching them all ran sweeps rounds 1.034x as long.
        columns = _no_signal_columns(len(rows), refs.slot_matrix.shape[1])
        if live.size:
            for name, column in _match_peaks(peaks[live], refs, bit, cfg).items():
                columns[name][live] = column
        reason = columns["reason"]
        reason[counts < cfg.min_peaks] = _FEW_PEAKS
        reason[counts == 0] = _NO_PEAKS
        reason[dead] = _ALL_ZERO if n else _EMPTY
    columns["peaks"] = counts
    return columns


# Rows per chunk. Small chunks keep the complex FFT temporaries in cache
# and peak memory flat; on 2 vCPUs a sweep round's 630 traces took
# 0.24-0.34 ms each at 32 rows and 0.30-0.36 at 64, whose peak RSS was
# 3 MB higher, and one 1,024-row batch ran the envelope slower per row
# than a single trace.
_CHUNK_ROWS = 32

# Cells of the largest buffer a thread keeps between calls: a full chunk
# of sweep traces (32 input rows and 8 complex spectrum rows at nfft
# 3360) fits, at 8 bytes per cell about 1.3 MB. A larger chunk, such as
# one 250,000-sample capture, is rare enough to allocate per call and
# free with it.
_KEPT_CELLS = (_CHUNK_ROWS + 2 * _SLICE_ROWS) * 4096

# Traces of one (length, rate) held before they are detected: sixteen
# chunks, enough to keep every chunk worker busy. Each block pays about
# 0.65 ms of worker wake-up; 64-trace blocks made ten per sweeps round and
# ran it 1.08x as long.
_BLOCK_TRACES = 16 * _CHUNK_ROWS


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@cache
def _pool() -> ThreadPoolExecutor:
    """The chunk workers, one per CPU, built on the first multi-chunk call.

    Two threads' simultaneous first calls may build two; the cache keeps
    one, and the other's idle workers exit once the call that built it
    returns.
    """
    return ThreadPoolExecutor(_cpus(), thread_name_prefix="emanakey-detect")


# A forked child has none of the parent's threads; it builds its own pool.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _detect_blocks(blocks: list, refs: ReferenceSet, cfg: DetectorConfig) -> tuple:
    """Detect (rate, positions, rows) blocks in chunks of _CHUNK_ROWS rows.

    Returns the rows' positions and columns. Joining the chunks' columns
    keeps one set of arrays per call, not one per chunk: a CLI noise sweep
    at ten repeats peaked 0.2-0.4 MB higher with one per chunk.
    """
    chunks = [
        (rows[lo : lo + _CHUNK_ROWS], rate)
        for rate, _, rows in blocks
        for lo in range(0, len(rows), _CHUNK_ROWS)
    ]
    # One chunk, or one CPU, runs on the calling thread and starts none.
    chunk_map = _pool().map if len(chunks) > 1 and _cpus() > 1 else map
    parts = list(chunk_map(lambda chunk: _detect_rows(*chunk, refs, cfg), chunks))
    positions = np.concatenate([held for _, held, _ in blocks])
    if len(parts) == 1:
        return positions, parts[0]
    return positions, {name: np.concatenate([part[name] for part in parts]) for name in _COLUMNS}


def detect_batch(
    traces: Iterable[EmanationTrace],
    refs: ReferenceSet,
    cfg: DetectorConfig = DEFAULT_CONFIG,
) -> Detections:
    """detect() for many traces: one row per trace, in input order.

    ``traces`` may be any iterable, a generator included. Traces wait in
    one bucket per (length, sample rate), since both fix the FFT size. A
    bucket that reaches _BLOCK_TRACES is detected at once and its samples
    released, so no more than a block of samples per bucket is held
    however many traces come; the record's columns take about 190 bytes
    per trace. The leftovers of every bucket are detected together at the
    end. A block runs in chunks of _CHUNK_ROWS rows, on the worker pool
    when there are several; a lone trace takes the path of a chunk of one
    row, on the calling thread. Each chunk returns its rows' columns and
    the record gathers them, so no per-trace object is made, and a row's
    result does not depend on its block or chunk. A trace with no usable
    signal gets a no-signal row and does not fail the batch. An error that
    does, such as SampleRateError, is raised from the first failing chunk.
    Raises ConfigError when cfg.offset_search is not below the references'
    slot width.
    """
    width = refs.slot_matrix.shape[1]
    if cfg.offset_search >= width:
        raise ConfigError(
            "offset_search (offset_search_slots in a config file) is "
            f"{cfg.offset_search}; it must be below the references' slot width, {width}"
        )
    buckets: dict[tuple[int, float], tuple[list[int], list[np.ndarray]]] = {}
    parts = []
    for i, trace in enumerate(traces):
        shape = (trace.samples.size, trace.sample_rate)
        positions, rows = buckets.setdefault(shape, ([], []))
        positions.append(i)
        rows.append(trace.samples)
        if len(rows) == _BLOCK_TRACES:
            del buckets[shape]
            parts.append(_detect_blocks([(shape[1], positions, rows)], refs, cfg))
    in_order = not parts and len(buckets) == 1  # one bucket, never flushed
    if buckets:
        leftovers = [(rate, *held) for (_, rate), held in buckets.items()]
        parts.append(_detect_blocks(leftovers, refs, cfg))
    if in_order:  # a gather ran detect 1.07x as long
        ((_, columns),) = parts
    else:
        columns = _no_signal_columns(sum(rows.size for rows, _ in parts), width)
        while parts:  # each part is freed once gathered
            rows, part = parts.pop()
            for name, column in part.items():
                columns[name][rows] = column
    return Detections(refs=refs, min_peaks=cfg.min_peaks, **columns)


def detect(
    trace: EmanationTrace,
    refs: ReferenceSet,
    cfg: DetectorConfig = DEFAULT_CONFIG,
) -> DetectionResult:
    """Full pipeline: bandpass, envelope, normalize, floor+peaks, align, match.

    One trace through detect_batch; raises NoSignalError when the trace
    carries no usable signal.
    """
    outcome = detect_batch([trace], refs, cfg)[0]
    if isinstance(outcome, NoSignalError):
        raise outcome
    return outcome
