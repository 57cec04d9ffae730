"""The few signal-processing kernels the package needs, in numpy alone.

Each one returns the bits of the SciPy routine it stands in for, on the
inputs the package gives it: ``frequency_sampling_taps`` is
``scipy.signal.firwin2`` with a Kaiser window and an odd tap count,
``lowpass_taps`` is ``scipy.signal.firwin`` with one cutoff and its
default Hamming window, ``next_fast_len`` is ``scipy.fft.next_fast_len``,
and ``find_peaks`` is ``scipy.signal.find_peaks`` with only its height and
distance conditions. tests/test_dsp.py checks each against SciPy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Cephes' Chebyshev coefficients for exp(-x) I0(x) on [0, 8].
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)


def _i0(x: float) -> float:
    """Modified Bessel function I0 for 0 <= x <= 8, as scipy.special.i0.

    Cephes' series with libm's exp: numpy's vectorized exp can differ from
    it by an ulp, and so can np.i0.
    """
    y = x / 2.0 - 2.0
    b0, b1, b2 = _I0_A[0], 0.0, 0.0
    for coefficient in _I0_A[1:]:
        b2 = b1
        b1 = b0
        b0 = y * b1 - b2 + coefficient
    return math.exp(x) * (0.5 * (b0 - b2))


@lru_cache(maxsize=4)
def _kaiser(numtaps: int, beta: float) -> np.ndarray:
    """scipy.signal.windows.kaiser(numtaps, beta), symmetric; beta <= 8."""
    n = np.arange(0, numtaps, dtype=np.float64)
    alpha = (numtaps - 1) / 2.0
    arg = beta * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)
    window = np.array([_i0(v) for v in arg.tolist()]) / _i0(beta)
    window.setflags(write=False)
    return window


def frequency_sampling_taps(
    numtaps: int, freq: np.ndarray, gain: np.ndarray, fs: float, beta: float
) -> np.ndarray:
    """firwin2(numtaps, freq, gain, fs=fs, window=("kaiser", beta)), numtaps odd.

    The response is sampled by linear interpolation on a 2^k + 1 point
    mesh from 0 to fs / 2, phase-shifted so that the inverse real FFT's
    first numtaps coefficients are the filter, and windowed. ``freq`` runs
    from 0 to fs / 2 with no repeated value.
    """
    nyq = 0.5 * fs
    nfreqs = 1 + 2 ** int(math.ceil(math.log(numtaps, 2)))
    x = np.linspace(0.0, nyq, nfreqs)
    fx = np.interp(x, freq, gain)
    # SciPy's operations in SciPy's order, which fix the rounding.
    shift = np.exp(-(numtaps - 1) / 2. * 1j * np.pi * x / nyq)
    return np.fft.irfft(fx * shift)[:numtaps] * _kaiser(numtaps, beta)


def lowpass_taps(numtaps: int, cutoff: float, fs: float) -> np.ndarray:
    """firwin(numtaps, cutoff, fs=fs): a Hamming-windowed sinc, unit gain at DC."""
    right = cutoff / float(0.5 * fs)
    m = np.arange(0, numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = right * np.sinc(right * m)
    fac = np.linspace(-np.pi, np.pi, numtaps)
    # SciPy's Hamming weights are 0.54 and 1 - 0.54, which is not the double 0.46.
    h *= 0.54 + (1.0 - 0.54) * np.cos(fac)
    h /= np.sum(h)
    return h


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n, n >= 1: scipy.fft.next_fast_len(n)."""
    best = 1 << (n - 1).bit_length()  # a power of two >= n
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # The least p3 * 2^k >= n.
                    best = min(best, p3 << ((n - 1) // p3).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of 1-D float64 x, as scipy's find_peaks.

    A maximum is a rise, then a run of equal samples (often just one), then
    a fall; it is reported at the run's midpoint, rounded down. NaN equals
    nothing and compares false, so it never rises, falls or joins a run;
    neither end of x is a maximum.
    """
    up = x[:-1] < x[1:]  # up[i]: x rises from i to i + 1
    # Every maximum's run starts at a top: a sample x rises into and does
    # not rise out of.
    top = (up[:-1] > up[1:]).nonzero()[0]
    top += 1
    here = x[top]
    after = x[top + 1]
    single = top[after < here]
    starts = top[after == here]
    if not starts.size:
        return single
    # Pair each run that starts at a top with its last sample; a run that
    # reaches x's end has none.
    same = x[:-1] == x[1:]
    ends = (same[:-1] > same[1:]).nonzero()[0]
    ends += 1
    at = ends.searchsorted(starts)
    paired = at < ends.size
    starts = starts[paired]
    ends = ends[at[paired]]
    falls = x[ends + 1] < x[ends]
    peaks = np.concatenate((single, (starts[falls] + ends[falls]) // 2))
    peaks.sort()
    return peaks


def keep_by_distance(peaks: np.ndarray, heights: np.ndarray, distance: float) -> np.ndarray:
    """The peaks find_peaks keeps under ``distance``: a boolean mask.

    Peaks are visited from the highest down, in the order np.argsort gives
    their heights (which decides between equal heights), and each peak
    still kept removes every other peak closer than ceil(distance). A peak
    reaches only that far, so the visit runs over the peaks that have a
    neighbour that close.
    """
    reach = math.ceil(distance)
    close = np.diff(peaks) < reach
    crowded = np.zeros(peaks.size, dtype=bool)
    crowded[:-1] = close
    crowded[1:] |= close
    order = np.argsort(heights)[::-1]
    at = peaks.tolist()
    keep = [True] * len(at)
    for j in order[crowded[order]].tolist():
        if not keep[j]:
            continue
        k = j - 1
        while k >= 0 and at[j] - at[k] < reach:
            keep[k] = False
            k -= 1
        k = j + 1
        while k < len(at) and at[k] - at[j] < reach:
            keep[k] = False
            k += 1
    return np.array(keep, dtype=bool)


def find_peaks(
    x: np.ndarray, height: float | None = None, distance: float | None = None
) -> np.ndarray:
    """scipy.signal.find_peaks(x, height=height, distance=distance)[0].

    The local maxima of 1-D float64 x at least ``height`` high, then thinned
    so that no two lie closer than ``distance`` (>= 1) samples.
    """
    peaks = local_maxima(x)
    if height is not None:
        peaks = peaks[height <= x[peaks]]
    if distance is not None:
        peaks = peaks[keep_by_distance(peaks, x[peaks], distance)]
    return peaks


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
