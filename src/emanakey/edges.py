"""Reference edge series: the binary classification feature.

An edge series has one slot per bit interval over the capture window; a
slot holds '1' when the differential line changes state at that bit
boundary. Emanation bursts occur at exactly those switching instants, so
the series is both the per-key reference and the detector's feature.

Two generation routes exist and must agree on clean input: the analytic
route reads transitions straight off the encoded line states, and the
probed-waveform route runs the wire-capture pipeline (lowpass, differentiate,
peak detect) over a synthesized differential trace. Its Hamming lowpass
and its peak finder are emanakey.dsp's numpy ports of scipy.signal's
firwin and find_peaks, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .bits import DIFFERENTIAL_LEVEL, LineState
from .dsp import _percentile_rows, find_peaks, lowpass_taps
from .errors import EmptySeriesError, SampleRateError
from .frames import FULL_SPEED_BIT_RATE, Frame, build_keystroke_transaction
from .keys import KEYS, KeyId

DIFFERENTIAL_SWING_V = 3.3

# Wire-pipeline defaults. The lowpass is a short, gentle FIR: at 12 Mbps a
# bit-rate-alternating stretch has its fundamental at 6 MHz, just past the
# cutoff, and must survive with enough amplitude to keep every edge
# detectable. End-of-packet transitions swing half the J<->K span, so the
# peak threshold sits below one half of the full-swing derivative.
WIRED_LOWPASS_CUTOFF_HZ = 5e6
WIRED_LOWPASS_TAPS = 41
WIRED_PEAK_THRESHOLD = 0.35
WIRED_RISE_TIME_S = 8e-9
WIRED_PAD_S = 1e-6
REFERENCE_SAMPLE_RATE = 250e6  # the pipeline route's probe sampling rate
PEAK_SEPARATION_BIT_FRACTION = 2.0 / 3.0


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class EdgeSeries:
    """Binary per-slot edge indicator with its time base."""

    slots: np.ndarray
    bit_width: float
    origin: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "slots", np.ascontiguousarray(self.slots, dtype=np.uint8)
        )
        if self.slots.ndim != 1:
            raise ValueError("slots must be a 1-D binary vector")
        if self.slots.max(initial=0) > 1:  # uint8: only 0 and 1 stay <= 1
            raise ValueError("slots must contain only 0 and 1")

    def __len__(self) -> int:
        return int(self.slots.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSeries):
            return NotImplemented
        return (
            np.array_equal(self.slots, other.slots)
            and self.bit_width == other.bit_width
            and self.origin == other.origin
        )

    def __hash__(self):
        return hash((self.slots.tobytes(), self.bit_width, self.origin))

    @property
    def ones(self) -> int:
        return int(self.slots.sum())

    def edge_times(self) -> np.ndarray:
        """Times of the '1' slots (slot start = bit boundary)."""
        return self.origin + np.flatnonzero(self.slots) * self.bit_width


def edge_signs(frame: Frame, window: str = "capture") -> np.ndarray:
    """Sign of the differential level change at each slot boundary, 0 if none.

    The line idles at J before the window, so the opening SYNC transition
    lands in slot 0. J, K and SE0 sit at distinct levels, so a nonzero
    sign marks exactly the slots where the line state changes.
    """
    levels = [DIFFERENTIAL_LEVEL[LineState.J]]
    levels += [DIFFERENTIAL_LEVEL[s] for s in frame.slot_states(window)]
    return np.sign(np.diff(levels)).astype(np.int8)


def edges_analytic(frame: Frame, window: str = "capture") -> EdgeSeries:
    """Slot i is 1 iff the differential line state changes at boundary i."""
    return EdgeSeries(
        slots=edge_signs(frame, window) != 0, bit_width=frame.bit_time, origin=0.0
    )


def simulate_probed_waveform(frame: Frame, sample_rate: float) -> np.ndarray:
    """Differential voltage seen by wire probes across the data pair.

    Trapezoidal +/-3.3 V (0 V during end-of-packet) over the capture
    window, with linear ramps of WIRED_RISE_TIME_S centered on the bit
    boundaries, padded with WIRED_PAD_S of idle line on both sides.
    Probing the pair differentially keeps every state change visible,
    including the half-swing end-of-packet transitions.
    """
    if sample_rate < 10 * frame.bit_rate:
        raise SampleRateError(
            f"sample rate {sample_rate:g} below 10x bit rate {frame.bit_rate:g}"
        )
    bit = frame.bit_time
    levels = [
        DIFFERENTIAL_LEVEL[s] * DIFFERENTIAL_SWING_V for s in frame.slot_states()
    ]
    idle = DIFFERENTIAL_LEVEL[LineState.J] * DIFFERENTIAL_SWING_V
    bounded = np.array([idle] + levels + [idle])

    # Breakpoints for np.interp: each boundary contributes the end of the
    # previous level and the start of the next, the rise time apart.
    rise_time, pad = WIRED_RISE_TIME_S, WIRED_PAD_S
    end = (len(levels)) * bit
    boundary = np.arange(len(bounded) - 1) * bit  # between bounded[i] and [i+1]
    xp = np.concatenate((
        [-pad],
        np.column_stack((boundary - rise_time / 2, boundary + rise_time / 2)).ravel(),
        [end + pad],
    ))
    fp = np.concatenate(([idle], np.column_stack((bounded[:-1], bounded[1:])).ravel(), [idle]))

    n = int(round((end + 2 * pad) * sample_rate))
    t = np.arange(n) / sample_rate - pad
    return np.interp(t, xp, fp).astype(np.float64)


@lru_cache(maxsize=8)
def _wired_lowpass(sample_rate: float) -> np.ndarray:
    """The wire pipeline's lowpass FIR, designed once per sample rate."""
    return _read_only(
        lowpass_taps(WIRED_LOWPASS_TAPS, WIRED_LOWPASS_CUTOFF_HZ, sample_rate)
    )


def wired_pipeline_edges(
    waveform: np.ndarray,
    sample_rate: float,
    bit_width: float = 1.0 / FULL_SPEED_BIT_RATE,
    expected_slots: int | None = None,
) -> EdgeSeries:
    """Wire-capture edge extraction: lowpass, differentiate, peak detect.

    Peaks of the absolute derivative mark the transitions; slots are
    assigned on a grid anchored at the first peak. ``expected_slots`` pads
    the series with trailing zero slots up to the window length when the
    caller knows it (references do); otherwise the series ends at the last
    detected edge. Raises EmptySeriesError for a waveform shorter than the
    lowpass, one that is not finite, or one with no edge.
    """
    x = np.asarray(waveform, dtype=np.float64)
    if x.size < WIRED_LOWPASS_TAPS:
        raise EmptySeriesError(
            f"probed waveform has {x.size} samples; the lowpass needs at least "
            f"{WIRED_LOWPASS_TAPS}"
        )
    if not np.isfinite(x).all():
        raise EmptySeriesError("probed waveform is not finite")
    # Odd-length symmetric FIR + centered convolution = group delay removed.
    filtered = np.convolve(x, _wired_lowpass(sample_rate), mode="same")
    deriv = np.abs(np.gradient(filtered))

    robust_max = _percentile_rows(deriv.copy(), 99.0)[0]  # the peak pass reads deriv
    min_sep = max(1, int(round(PEAK_SEPARATION_BIT_FRACTION * bit_width * sample_rate)))
    peaks = find_peaks(deriv, height=WIRED_PEAK_THRESHOLD * robust_max, distance=min_sep)
    if peaks.size == 0:
        raise EmptySeriesError("no derivative peaks found in probed waveform")

    peak_times = peaks / sample_rate
    anchor = peak_times[0]
    slot_idx = np.rint((peak_times - anchor) / bit_width).astype(int)
    n_slots = expected_slots if expected_slots is not None else int(slot_idx[-1]) + 1
    slots = np.zeros(n_slots, dtype=np.uint8)
    valid = (slot_idx >= 0) & (slot_idx < n_slots)
    slots[slot_idx[valid]] = 1
    return EdgeSeries(slots=slots, bit_width=bit_width, origin=anchor)


@dataclass(frozen=True)
class ReferenceSet:
    """The per-key reference edge series, immutable once built.

    The scoring arrays are read-only, in key order, and built on first use.
    A detection names a winner and a runner-up, so a set holds at least two
    keys, each with at least one slot. All entries share one bit width,
    which is the set's time base.
    """

    entries: dict[KeyId, EdgeSeries]

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError(f"need at least 2 references, got {len(self.entries)}")
        if any(len(e) == 0 for e in self.entries.values()):
            raise ValueError("every reference needs at least one slot")
        widths = {e.bit_width for e in self.entries.values()}
        if len(widths) > 1:
            raise ValueError("all reference entries must share one bit width")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def bit_width(self) -> float:
        """The slot width (s) every entry shares."""
        return next(iter(self.entries.values())).bit_width

    @property
    def bit_rate(self) -> float:
        return 1.0 / self.bit_width

    def __getitem__(self, key: KeyId) -> EdgeSeries:
        return self.entries[key]

    @cached_property
    def _ordered_keys(self) -> list[KeyId]:
        return sorted(self.entries, key=lambda k: k.index)

    def keys_in_order(self) -> list[KeyId]:
        return self._ordered_keys

    def max_slots(self) -> int:
        return max(len(e) for e in self.entries.values())

    @cached_property
    def lengths(self) -> np.ndarray:
        """Slot count of each reference: (keys,) int64."""
        lengths = [len(self.entries[k]) for k in self.keys_in_order()]
        return _read_only(np.array(lengths, dtype=np.int64))

    @cached_property
    def slot_matrix(self) -> np.ndarray:
        """Reference slots zero-padded to the longest entry: (keys, max_slots) uint8."""
        mat = np.zeros((len(self), self.max_slots()), dtype=np.uint8)
        for row, key in enumerate(self.keys_in_order()):
            mat[row, : self.lengths[row]] = self.entries[key].slots
        return _read_only(mat)

    @cached_property
    def edge_counts(self) -> np.ndarray:
        """Ones in each reference: (keys,) float64."""
        return _read_only(self.slot_matrix.sum(axis=1).astype(np.float64))

    @cached_property
    def mismatch_weights(self) -> np.ndarray:
        """(max_slots, keys) float64: in-range mask minus twice the slots.

        For a 0/1 row g, ``g @ mismatch_weights + edge_counts`` counts the
        slots where g and each reference disagree within that reference's
        length.
        """
        width = self.slot_matrix.shape[1]
        in_range = np.arange(width)[None, :] < self.lengths[:, None]
        return _read_only((in_range - 2.0 * self.slot_matrix).T.copy())

    @cached_property
    def _shift_tables(self) -> dict[int, np.ndarray]:
        return {}

    def shift_table(self, search: int) -> np.ndarray:
        """mismatch_weights at every shift within +/-search, built once per search.

        A (width + 2*search, (2*search + 1) * keys) float32 table whose
        column block o scores a shift of s = o - search slots: for a 0/1
        vector v of width + 2*search slots, ``v @ table[:, block o]`` equals
        ``g @ mismatch_weights`` for the grid g[j] = v[j - s + search].
        Entries are 0 and +/-1, so the float32 sums are exact integers.
        """
        table = self._shift_tables.get(search)
        if table is None:
            width, keys = self.mismatch_weights.shape
            shifts = 2 * search + 1
            table = np.zeros((width + 2 * search, shifts, keys), dtype=np.float32)
            for o in range(shifts):
                table[2 * search - o : 2 * search - o + width, o] = self.mismatch_weights
            table = _read_only(table.reshape(width + 2 * search, shifts * keys))
            self._shift_tables[search] = table
        return table


def build_reference_set(method: str = "analytic") -> ReferenceSet:
    """Generate the reference series for all 70 keys, deterministically.

    Each key's series comes from its DATA0 keystroke transaction.
    ``method="analytic"`` reads edges off the encoded line states;
    ``method="pipeline"`` pushes a probe waveform sampled at
    REFERENCE_SAMPLE_RATE through the wire-capture pipeline. The two agree
    exactly on clean synthesis.
    """
    if method not in ("analytic", "pipeline"):
        raise ValueError(f"method must be 'analytic' or 'pipeline', got {method!r}")
    entries: dict[KeyId, EdgeSeries] = {}
    for key in KEYS:
        frame = build_keystroke_transaction(key)
        analytic = edges_analytic(frame)
        if method == "analytic":
            entries[key] = analytic
        else:
            waveform = simulate_probed_waveform(frame, REFERENCE_SAMPLE_RATE)
            series = wired_pipeline_edges(
                waveform,
                REFERENCE_SAMPLE_RATE,
                bit_width=frame.bit_time,
                expected_slots=len(analytic),
            )
            entries[key] = replace(series, origin=0.0)
    return ReferenceSet(entries=entries)


def pairwise_distance(a: EdgeSeries, b: EdgeSeries, shift: int = 0) -> int:
    """Hamming distance over zero-padded common length, with ``b`` shifted."""
    n = max(len(a), len(b)) + abs(shift)
    va = np.zeros(n, dtype=np.uint8)
    vb = np.zeros(n, dtype=np.uint8)
    va[: len(a)] = a.slots
    if shift >= 0:
        vb[shift : shift + len(b)] = b.slots
    else:
        vb[: len(b) + shift] = b.slots[-shift:]
    return int(np.count_nonzero(va != vb))


def min_pairwise_distance(
    refs: ReferenceSet, max_shift: int = 0
) -> tuple[int, KeyId, KeyId]:
    """Smallest pairwise distance over the set, minimized over +/-max_shift.

    This distance bounds single-trace error tolerance: a detected series
    with e corrupted slots cannot reach a wrong key while 2e < d_min.
    """
    keys = refs.keys_in_order()
    best = None
    for i, ka in enumerate(keys):
        for kb in keys[i + 1 :]:
            d = min(
                pairwise_distance(refs[ka], refs[kb], shift)
                for shift in range(-max_shift, max_shift + 1)
            )
            if best is None or d < best[0]:
                best = (d, ka, kb)
    return best
