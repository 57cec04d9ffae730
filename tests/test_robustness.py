"""Defect ledger: each known robustness defect, and each property that
holds, as one row of (capture transform, preset, master seed, bound).

A row that fails today is marked ``xfail(strict=True, reason="item N:
...")``, N being its ROADMAP item. The change that fixes the defect turns
the row into an unexpected pass, which strict mode reports as a failure,
so that change removes the marker.

Every cell holds 70 traces, one repeat of every key. The rows use master
seed 2718, which no prototype or other test used, but for the DC row,
which keeps its recipe's seed 56.

Bounds are derived, not tuned. A row compares the correct count c of an
impaired cell with the count c0 of the same traces unimpaired, and
passes when c >= c0 - k. If the impairment changed nothing, c and c0
would be two draws of Binomial(n, p). p is estimated by the
Agresti-Coull value p~ = (c0 + 2) / (n + 4), which stays inside (0, 1)
when c0 = n. k is the smallest integer with P(X - Y > k) <= 1% for X and
Y independent Binomial(n, p~), computed exactly from the two pmfs.
Paired traces share their noise, so their counts differ less than
independent ones would, and this k errs on the side of passing. At
n = 70, c0 = 70 gives k = 5 and c0 = 66 gives k = 8.

The noise-only row has no unimpaired count. A detector that can say "not
a keystroke" should name a key on noise at a rate of at most 5%; the row
allows m named traces of 70, m being the smallest integer with
P(Binomial(70, 0.05) > m) <= 1%, which is 8.
"""

import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from emanakey import sweep
from emanakey.channel import apply_channel, get_preset, synth_dataset
from emanakey.detector import detect_batch
from emanakey.errors import NoSignalError
from emanakey.keys import KEYS

HELD_OUT_SEED = 2718
DC_SEED = 56
ALPHA = 0.01
N = len(KEYS)
KNEE = sweep.NOISE_BASE_PRESET


def _pmf(n: int, p: float) -> list[float]:
    return [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]


def allowed_drop(c0: int, n: int = N, alpha: float = ALPHA) -> int:
    """k: the smallest integer with P(X - Y > k) <= alpha, X and Y
    independent Binomial(n, (c0 + 2) / (n + 4))."""
    pmf = _pmf(n, (c0 + 2) / (n + 4))
    diff = [0.0] * (n + 1)  # P(X - Y = d) for d >= 0
    for i, p_i in enumerate(pmf):
        for j in range(i + 1):
            diff[i - j] += p_i * pmf[j]
    k = 0
    while sum(diff[k + 1 :]) > alpha:
        k += 1
    return k


def allowed_false_accepts(n: int = N, rate: float = 0.05, alpha: float = ALPHA) -> int:
    """m: the smallest integer with P(Binomial(n, rate) > m) <= alpha."""
    pmf = _pmf(n, rate)
    m = 0
    while sum(pmf[m + 1 :]) > alpha:
        m += 1
    return m


def test_bounds_follow_their_derivation():
    assert [allowed_drop(c0) for c0 in (70, 68, 66)] == [5, 6, 8]
    assert allowed_false_accepts() == 8


@cache
def _traces(preset: str, seed: int) -> tuple:
    return tuple(synth_dataset(list(KEYS), get_preset(preset), repeats=1, master_seed=seed))


def _correct(traces, refs) -> int:
    return sum(
        not isinstance(result, NoSignalError) and result.key == trace.ground_truth
        for trace, result in zip(traces, detect_batch(traces, refs))
    )


def _transformed(traces, transform) -> list:
    return [replace(t, samples=transform(t.samples)) for t in traces]


def _assert_holds(refs, traces, transforms):
    c0 = _correct(traces, refs)
    k = allowed_drop(c0)
    counts = {name: _correct(_transformed(traces, f), refs) for name, f in transforms}
    assert all(c >= c0 - k for c in counts.values()), (c0, k, counts)


# --- rows that hold ----------------------------------------------------------


@pytest.mark.parametrize("preset", ["open-space-3m", KNEE])
def test_polarity_flip(refs, preset):
    _assert_holds(refs, _traces(preset, HELD_OUT_SEED), [("flip", np.negative)])


@pytest.mark.parametrize("preset", ["open-space-3m", KNEE])
def test_scale(refs, preset):
    transforms = [("x1e3", lambda x: x * 1e3), ("x0.37", lambda x: x * 0.37)]
    _assert_holds(refs, _traces(preset, HELD_OUT_SEED), transforms)


@pytest.mark.parametrize("preset", ["open-space-3m", KNEE, "office-12m"])
def test_dc_offset(refs, preset):
    # Item 17: each row's mean is removed before the envelope.
    traces = _traces(preset, DC_SEED)
    rms = np.sqrt(np.mean(np.concatenate([t.samples for t in traces]).astype(float) ** 2))
    transforms = [(f"dc{c}", lambda x, c=c: x + c * rms) for c in (1, 10)]
    _assert_holds(refs, traces, transforms)


# --- rows that fail today ----------------------------------------------------


@pytest.mark.xfail(strict=True, reason="item 3: two glitch bursts collapse the scale")
def test_two_glitches(refs):
    report = sweep.run_glitch_sweep([0, 2], refs, repeats=1, master_seed=HELD_OUT_SEED)
    counts = {label: 0 for label in ("glitch-0", "glitch-2")}
    for row in report.rows:
        counts[row.preset] += row.correct
    c0 = counts["glitch-0"]
    assert counts["glitch-2"] >= c0 - allowed_drop(c0), counts


@pytest.mark.xfail(strict=True, reason="item 6: noise-only traces are named as keys")
def test_noise_only_traces_are_not_keystrokes(refs):
    knee = get_preset(KNEE)
    traces = [
        apply_channel(np.zeros(3000), knee, ground_truth=key, stream=(HELD_OUT_SEED, 0))
        for key in KEYS
    ]
    named = sum(not isinstance(r, NoSignalError) for r in detect_batch(traces, refs))
    assert named <= allowed_false_accepts(), named
