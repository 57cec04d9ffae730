"""Emanation channel: radiated edge pulses plus configurable impairments.

Each line transition radiates a short burst whose energy sits in the
detector's 10-18 MHz band. The channel scales that clean waveform by a
gain that encodes distance/environment, shielding attenuation and
body-coupling pickup, then adds white noise, narrowband interferers
(FM-broadcast band and, when the sample rate allows, a mobile uplink
tone) and occasional high-amplitude glitches.

Presets are calibrated in SNR, not meters: the open-space ladder maps
distance to gain through a free-space 20*log10(d) falloff anchored so the
3.8 m preset sits at the detection-accuracy knee.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from importlib import resources
from numbers import Integral
from pathlib import Path

import numpy as np

from . import frames
from .dsp import _percentile_rows
from .edges import EdgeSeries, edge_signs
from .errors import FileFormatError, UnknownPresetError
from .frames import Frame
from .keys import KeyId

DEFAULT_SAMPLE_RATE = 250e6
DEFAULT_PAD_S = 1e-6

# Free-space ladder anchor: gain assigned to the accuracy-knee distance.
# Calibrated against the default pulse/detector so the knee preset scores
# ~97-98% over 70 keys x 10 repeats at the open-space noise floor.
KNEE_DISTANCE_M = 3.8
KNEE_GAIN_DB = -81.2


@dataclass(frozen=True)
class PulseShape:
    """Gaussian-windowed cosine burst radiated per edge.

    Centered mid-band so the detection filter retains it. The width
    balances two constraints: the envelope (convolved with the detector's
    band-limited response) must fall well below the half-amplitude floor
    one bit away, while the spectrum stays centered on the 10-18 MHz
    detection band.
    """

    center_freq: float = 14e6
    sigma: float = 22e-9
    amplitude: float = 1.0
    support_sigmas: float = 5.0

    def waveform(self, t: np.ndarray) -> np.ndarray:
        env = np.exp(-0.5 * (t / self.sigma) ** 2)
        return self.amplitude * env * np.cos(2 * np.pi * self.center_freq * t)


@dataclass(frozen=True)
class Interferer:
    """Narrowband interference source: a tone, or a comb across a band."""

    center_hz: float
    bandwidth_hz: float
    power: float  # mean-square volts at the receiver

    def as_list(self) -> list[float]:
        return [self.center_hz, self.bandwidth_hz, self.power]


# ChannelPreset's scalar number fields; each must be finite and no bool.
_PRESET_NUMBERS = (
    "gain_db", "noise_density", "glitch_rate", "body_coupling_gain", "shielding_db",
)

# Upper bounds on a preset's magnitudes: far past any physical channel, and
# low enough that every synthesized sample stays finite in float32.
PRESET_LIMITS = {
    "gain_db": 200.0,  # dB, a gain of 1e10 on the clean waveform
    "noise_density": 1.0,  # V/sqrt(Hz)
    "glitch_rate": 1000.0,  # mean bursts per trace
    "glitch_amp": 1000.0,  # burst peak over the signal peak
    "interferer power": 1e6,  # V^2
}


@dataclass(frozen=True)
class ChannelPreset:
    """Named parameter bundle for one environment/distance point."""

    name: str
    gain_db: float = 0.0
    noise_density: float = 0.0
    interferers: tuple[Interferer, ...] = ()
    glitch_rate: float = 0.0
    glitch_amp: tuple[float, float] = (2.5, 4.0)
    body_coupling_gain: float = 1.0
    shielding_db: float = 0.0
    seed: int = 0
    description: str = ""

    def __post_init__(self):
        for name in ("name", "description"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a string, got {getattr(self, name)!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise TypeError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))  # JSON holds Python ints only
        numbers = [(name, getattr(self, name)) for name in _PRESET_NUMBERS]
        numbers += [("glitch_amp", value) for value in self.glitch_amp]
        numbers += [("interferers", v) for i in self.interferers for v in i.as_list()]
        for name, value in numbers:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 1.0 <= self.body_coupling_gain <= 4.0:
            raise ValueError("body_coupling_gain must lie in [1, 4]")
        if not 0.0 <= self.shielding_db <= 30.0:
            raise ValueError("shielding_db must lie in [0, 30]")
        if self.glitch_rate < 0:
            raise ValueError("glitch_rate must be >= 0")
        if self.noise_density < 0:
            raise ValueError("noise_density must be >= 0")
        for interferer in self.interferers:
            if interferer.bandwidth_hz < 0 or interferer.power < 0:
                raise ValueError("interferer bandwidth and power must be >= 0")
        low, high = self.glitch_amp
        if not 0 <= low <= high:
            raise ValueError("glitch_amp must be (low, high) with 0 <= low <= high")
        largest = {
            "gain_db": self.gain_db, "noise_density": self.noise_density,
            "glitch_rate": self.glitch_rate, "glitch_amp": high,
            "interferer power": max((i.power for i in self.interferers), default=0.0),
        }
        for name, value in largest.items():
            limit = PRESET_LIMITS[name]
            if value > limit:
                raise ValueError(f"{name} must be <= {limit:g}, got {value:g}")

    @property
    def signal_scale(self) -> float:
        """Linear gain on the clean waveform, shielding and body coupling included."""
        gain_db = self.gain_db - self.shielding_db
        return 10.0 ** (gain_db / 20.0) * self.body_coupling_gain

    def to_dict(self) -> dict:
        d = asdict(self)
        d["interferers"] = [i.as_list() for i in self.interferers]
        d["glitch_amp"] = list(self.glitch_amp)
        return d

    @functools.cached_property
    def json_text(self) -> str:
        """to_dict() as JSON with sorted keys, made once: trace files embed it."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelPreset":
        d = dict(d)
        d["interferers"] = tuple(Interferer(*v) for v in d.get("interferers", ()))
        if "glitch_amp" in d:
            d["glitch_amp"] = tuple(d["glitch_amp"])
        return cls(**d)


@dataclass(frozen=True)
class EmanationTrace:
    """Received waveform plus provenance; samples stored as float32."""

    samples: np.ndarray
    sample_rate: float
    ground_truth: KeyId | None = None
    preset: ChannelPreset | None = None
    seed: int | None = None
    repeat: int | None = None  # with seed and key, names the noise stream

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        if samples.ndim != 1:
            raise ValueError(f"trace samples must be 1-D, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError("trace samples must be finite")
        if isinstance(self.sample_rate, (bool, np.bool_)):
            raise TypeError(f"sample rate must be a number, got {self.sample_rate!r}")
        if not 0 < self.sample_rate < math.inf:  # NaN compares false
            raise ValueError(f"sample rate must be finite and > 0, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", samples)
        for name in ("seed", "repeat"):  # JSON metadata holds Python ints only
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise TypeError(f"{name} must be an integer or None, got {value!r}")
            object.__setattr__(self, name, int(value))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmanationTrace):
            return NotImplemented
        return (
            np.array_equal(self.samples, other.samples)
            and self.sample_rate == other.sample_rate
            and self.ground_truth == other.ground_truth
            and self.preset == other.preset
            and self.seed == other.seed
            and self.repeat == other.repeat
        )

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


def distance_to_gain_db(distance_m: float) -> float:
    """Free-space falloff anchored at the knee distance."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    return KNEE_GAIN_DB + 20.0 * math.log10(KNEE_DISTANCE_M / distance_m)


def radiate(
    source: Frame | EdgeSeries,
    pulse: PulseShape | None = None,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    pad_before: float = DEFAULT_PAD_S,
    pad_after: float = DEFAULT_PAD_S,
) -> np.ndarray:
    """Superpose one pulse per edge at the edge times.

    Pulse amplitude is uniform across edges (the detector treats edges as
    binary); the sign follows the direction of the differential level
    change when a frame is given.
    """
    pulse = pulse or PulseShape()
    if isinstance(source, Frame):
        signs = edge_signs(source)
        bit = source.bit_time
    else:
        signs = source.slots.astype(np.int8)
        bit = source.bit_width

    n = int(round((signs.size * bit + pad_before + pad_after) * sample_rate))
    out = np.zeros(n, dtype=np.float64)

    # One row per edge over its pulse support, clipped to the window; rows
    # are ragged by a sample, so a mask drops each row's tail. np.add.at
    # accumulates in edge order, the same float sums as adding pulse by pulse.
    half = pulse.support_sigmas * pulse.sigma
    slots = np.flatnonzero(signs)
    t_edge = pad_before + slots * bit
    lo = np.maximum(0, np.ceil((t_edge - half) * sample_rate).astype(np.int64))
    hi = np.minimum(n, np.floor((t_edge + half) * sample_rate).astype(np.int64) + 1)
    width = int(np.max(hi - lo, initial=0))
    if width <= 0:
        return out
    idx = lo[:, None] + np.arange(width)
    keep = idx < hi[:, None]
    t_local = idx / sample_rate - t_edge[:, None]
    pulses = signs[slots, None].astype(np.float64) * pulse.waveform(t_local)
    np.add.at(out, idx[keep], pulses[keep])
    return out


@functools.lru_cache(maxsize=1024)
def _clean_waveform(key: KeyId, sample_rate: float) -> np.ndarray:
    frame = frames.build_keystroke_transaction(key)
    out = radiate(frame, sample_rate=sample_rate)
    out.flags.writeable = False
    return out


def clean_waveform(key: KeyId, sample_rate: float = DEFAULT_SAMPLE_RATE) -> np.ndarray:
    """The key's noiseless emanation at the default pulse and padding, built once.

    It depends only on the key and the sample rate, so every trace of a
    key shares one read-only array; only the channel varies.
    """
    return _clean_waveform(key, sample_rate)


COMB_TONES = 16
_PLAN_SAMPLES = 1024  # interference tables are planned in whole multiples


@functools.lru_cache(maxsize=16)
def _interference_plan(
    interferer: Interferer, n: int, sample_rate: float
) -> tuple[int, np.ndarray, float, np.ndarray, np.ndarray] | None:
    """What every n-sample trace of one interferer shares, built once.

    The number of phases to draw, the mask of the tones below the Nyquist
    guard, the per-tone amplitude, and the kept tones' read-only
    cos(2*pi*f*t) and sin(2*pi*f*t), one row per tone. None for a tone at
    or above the guard, which draws no phase.
    """
    nyquist_guard = 0.48 * sample_rate
    if interferer.bandwidth_hz <= 0:
        if interferer.center_hz >= nyquist_guard:
            return None
        freqs = np.array([interferer.center_hz])
    else:
        freqs = np.linspace(
            interferer.center_hz - interferer.bandwidth_hz / 2,
            interferer.center_hz + interferer.bandwidth_hz / 2,
            COMB_TONES,
        )
    keep = freqs < nyquist_guard
    t = np.arange(n) / sample_rate
    arg = 2 * np.pi * freqs[keep][:, None] * t
    cos_t, sin_t = np.cos(arg), np.sin(arg)
    cos_t.flags.writeable = False
    sin_t.flags.writeable = False
    return freqs.size, keep, math.sqrt(2.0 * interferer.power / freqs.size), cos_t, sin_t


def _interference(
    interferer: Interferer, n: int, sample_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Tone (bandwidth 0) or 16-tone comb across the band, random phases.

    A tone at or above the Nyquist guard draws no phase; a comb draws all
    16 and drops the tones above the guard. Each tone is
    cos(wt + phase) = cos(wt) cos(phase) - sin(wt) sin(phase), so a trace
    costs its phase draw and one product with the interferer's planned
    tables. A single kept tone is one product per sample, which is what
    the matvec computes, without the cost of a BLAS call. The tables are
    planned for n rounded up to a multiple of _PLAN_SAMPLES and sliced,
    so traces a few samples apart share one plan: each table sample is
    computed on its own, and its bits do not depend on the length.
    """
    planned = -(-n // _PLAN_SAMPLES) * _PLAN_SAMPLES
    plan = _interference_plan(interferer, planned, sample_rate)
    if plan is None:
        return np.zeros(n)
    tones, keep, amp, cos_t, sin_t = plan
    cos_t, sin_t = cos_t[:, :n], sin_t[:, :n]
    phases = rng.uniform(0, 2 * np.pi, tones)[keep]
    a, b = amp * np.cos(phases), amp * np.sin(phases)
    if a.size == 1:
        return a[0] * cos_t[0] - b[0] * sin_t[0]
    return a @ cos_t - b @ sin_t


GLITCH_BURST_SIGMA_S = 20e-9
GLITCH_BURST_FREQ_HZ = 14e6


@functools.lru_cache(maxsize=8)
def _glitch_shape(sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gaussian envelope and carrier of a unit glitch burst."""
    half = int(round(4 * GLITCH_BURST_SIGMA_S * sample_rate))
    t = np.arange(-half, half + 1) / sample_rate
    env = np.exp(-0.5 * (t / GLITCH_BURST_SIGMA_S) ** 2)
    carrier = np.cos(2 * np.pi * GLITCH_BURST_FREQ_HZ * t)
    env.flags.writeable = False
    carrier.flags.writeable = False
    return env, carrier


def _glitch_burst(amplitude: float, sample_rate: float) -> np.ndarray:
    # Short burst with its energy inside the detection band: a spike that
    # is still a spike after the receiver's bandpass. A one-sample impulse
    # would lose ~24 dB of amplitude to out-of-band rejection.
    env, carrier = _glitch_shape(sample_rate)
    return amplitude * env * carrier


def _robust_max(x: np.ndarray) -> float:
    """The 99th percentile of |x|, or max |x| when that is 0; 0 for no samples."""
    magnitude = np.abs(x)
    if magnitude.size == 0:
        return 0.0
    r = float(_percentile_rows(magnitude, 99.0)[0])
    return r if r > 0 else float(np.max(magnitude, initial=0.0))


_Glitches = tuple[np.ndarray, np.ndarray, np.ndarray]
_SIGNS = np.array([-1.0, 1.0])
_SIGNS.flags.writeable = False


def _draw_glitches(
    count: int,
    amp_range: tuple[float, float],
    rng: np.random.Generator,
    times: np.ndarray | None,
    n: int,
    sample_rate: float,
) -> _Glitches:
    """Sample indices, amplitude factors and signs of ``count`` bursts in n samples."""
    if times is None:
        idx = rng.integers(1, max(2, n - 1), size=count)
    else:
        idx = np.clip(np.rint(np.asarray(times) * sample_rate).astype(int), 1, n - 2)
    factors = rng.uniform(amp_range[0], amp_range[1], size=count)
    # The stream and values of rng.choice([-1.0, 1.0], size=count), without
    # its argument checks.
    signs = _SIGNS[rng.integers(0, 2, size=count)]
    return idx, factors, signs


def _add_glitches(
    out: np.ndarray, glitches: _Glitches, base_amplitude: float, sample_rate: float
) -> None:
    """Add the drawn bursts, scaled by ``base_amplitude``, to the float64 ``out`` in place."""
    # Python scalars give numpy scalars' bits, with less overhead per burst.
    for i, f, s in zip(*(g.tolist() for g in glitches)):
        burst = _glitch_burst(s * f * base_amplitude, sample_rate)
        half = burst.size // 2
        lo = max(0, i - half)
        hi = min(out.size, i + half + 1)
        out[lo:hi] += burst[half - (i - lo) : half + (hi - i)]


_Impairments = tuple[list[np.ndarray], _Glitches | None]


def _impairment_spec(preset: ChannelPreset) -> tuple:
    """The preset fields that decide what _draw_impairments takes from a stream."""
    return (preset.noise_density, preset.interferers, preset.glitch_rate, preset.glitch_amp)


def _draw_impairments(
    preset: ChannelPreset, n: int, sample_rate: float, rng: np.random.Generator
) -> _Impairments:
    """Draw one trace's impairments from ``rng``: noise, each interferer, glitches.

    Returns the additive parts in the order they are added (the noise,
    then each interferer) and the glitch draws, or None when the preset
    has no glitch rate or the count drawn is 0. Only the fields in
    _impairment_spec decide them: presets that differ elsewhere (gain,
    shielding, coupling) draw the same impairments from the same stream.
    """
    parts = []
    if preset.noise_density > 0:
        sigma = preset.noise_density * math.sqrt(sample_rate / 2.0)
        parts.append(rng.normal(0.0, sigma, n))
    for interferer in preset.interferers:
        parts.append(_interference(interferer, n, sample_rate, rng))
    glitches = None
    if preset.glitch_rate > 0:
        count = int(rng.poisson(preset.glitch_rate))
        if count:
            glitches = _draw_glitches(count, preset.glitch_amp, rng, None, n, sample_rate)
    return parts, glitches


def _compose(
    clean: np.ndarray, preset: ChannelPreset, impairments: _Impairments, sample_rate: float
) -> np.ndarray:
    """clean * preset.signal_scale plus the drawn impairments, as float64.

    The parts are added one at a time in draw order, so the sums round
    the same way whichever presets share the draws.
    """
    parts, glitches = impairments
    out = np.asarray(clean, dtype=np.float64) * preset.signal_scale
    # Glitch amplitude scales with the wanted signal so the burst lands
    # just above the normalizer's clip level after the bandpass.
    signal_peak = float(np.max(np.abs(out), initial=0.0)) if glitches else 0.0
    for part in parts:
        out += part
    if glitches:
        _add_glitches(out, glitches, signal_peak, sample_rate)
    return out


def _stream(seed: int, key: KeyId, repeat: int) -> np.random.Generator:
    return np.random.default_rng([seed, key.index, repeat])


def apply_channel(
    clean: np.ndarray,
    preset: ChannelPreset,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    ground_truth: KeyId | None = None,
    *,
    stream: tuple[int, int] | None = None,
) -> EmanationTrace:
    """Deterministic channel given (preset, seed).

    trace = clean * preset.signal_scale + white noise + interferers + glitches

    The noise comes from the stream default_rng([master seed, key index,
    repeat]) when ``stream`` gives (master seed, repeat), else from
    default_rng(preset.seed). The trace records the seed and repeat
    (None without ``stream``) it used, so it can be made again from its
    own preset, seed, repeat and key.
    """
    if stream is None:
        seed, repeat = preset.seed, None
        rng = np.random.default_rng(seed)
    else:
        if ground_truth is None:
            raise ValueError("stream needs a ground truth")
        seed, repeat = stream
        rng = _stream(seed, ground_truth, repeat)
    impairments = _draw_impairments(preset, np.size(clean), sample_rate, rng)
    return EmanationTrace(
        samples=_compose(clean, preset, impairments, sample_rate),
        sample_rate=sample_rate,
        ground_truth=ground_truth,
        preset=preset,
        seed=seed,
        repeat=repeat,
    )


def inject_glitch(
    trace: EmanationTrace,
    count: int,
    amplitude: float | tuple[float, float] = (2.5, 4.0),
    times: np.ndarray | None = None,
    seed: int = 0,
    base_amplitude: float | None = None,
) -> EmanationTrace:
    """Add narrow high-amplitude interference bursts to a trace.

    ``amplitude`` is a multiple of ``base_amplitude``, which defaults to
    the trace's robust maximum (99th percentile): a glitch rises above
    the normalizer's clip level and exercises the top-1% skip. Callers
    that know the wanted-signal level (on traces whose raw amplitude is
    dominated by out-of-band interference) pass it explicitly. Bursts
    land at ``times`` (s, one per burst) when given, else at seeded-random
    positions.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if times is not None:
        times = np.asarray(times, dtype=np.float64)
        if times.shape != (count,):
            raise ValueError(f"times must hold count ({count}) entries, got {times.size}")
    if count == 0:
        return trace
    amp_range = (amplitude, amplitude) if np.isscalar(amplitude) else tuple(amplitude)
    rng = np.random.default_rng(seed)
    samples = trace.samples.astype(np.float64)
    glitches = _draw_glitches(
        count,
        amp_range,
        rng,
        times,
        samples.size,
        trace.sample_rate,
    )
    _add_glitches(
        samples,
        glitches,
        base_amplitude if base_amplitude is not None else _robust_max(trace.samples),
        trace.sample_rate,
    )
    return EmanationTrace(
        samples=samples,
        sample_rate=trace.sample_rate,
        ground_truth=trace.ground_truth,
        preset=trace.preset,
        seed=trace.seed,
        repeat=trace.repeat,
    )


def synth_units(
    keys: list[KeyId],
    presets: list[ChannelPreset],
    repeats: int = 2,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    master_seed: int | None = None,
) -> Iterator[list[EmanationTrace]]:
    """synth_datasets one (repeat, key) at a time: its trace for each preset.

    Units come repeats outermost, keys in list order, so the i-th unit
    holds item i of every dataset. A (key, repeat)'s stream is
    default_rng([seed, key index, repeat]), the seed being the master seed
    or, without one, each preset's own. Presets that agree on the seed
    and the impairment fields (noise density, interferers, glitch rate and
    amplitude) draw the same numbers from it, so each (key, repeat) draws
    once per distinct (seed, fields) and composes onto each preset's own
    signal scale: a distance ladder draws once per trace, not once per
    rung. Only the unit being made is held.
    """
    if not keys:
        raise ValueError("key list must be nonempty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    seeds = [preset.seed if master_seed is None else master_seed for preset in presets]
    specs = [(seed, *_impairment_spec(p)) for seed, p in zip(seeds, presets)]
    # Each preset draws through the first preset with its spec.
    drawer = [specs.index(spec) for spec in specs]
    for r in range(repeats):
        for key in keys:
            clean = clean_waveform(key, sample_rate)
            drawn: dict[int, _Impairments] = {}
            unit = []
            for preset, seed, first in zip(presets, seeds, drawer):
                if first not in drawn:
                    drawn[first] = _draw_impairments(
                        preset, clean.size, sample_rate, _stream(seed, key, r)
                    )
                unit.append(EmanationTrace(
                    samples=_compose(clean, preset, drawn[first], sample_rate),
                    sample_rate=sample_rate,
                    ground_truth=key,
                    preset=preset,
                    seed=seed,
                    repeat=r,
                ))
            yield unit


def synth_datasets(
    keys: list[KeyId],
    presets: list[ChannelPreset],
    repeats: int = 2,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    master_seed: int | None = None,
) -> list[list[EmanationTrace]]:
    """synth_dataset for each preset, one dataset per preset, bit for bit:
    synth_units' traces gathered by preset."""
    units = synth_units(keys, presets, repeats, sample_rate, master_seed)
    return [list(dataset) for dataset in zip(*units)]


def synth_dataset(
    keys: list[KeyId],
    preset: ChannelPreset,
    repeats: int = 2,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    master_seed: int | None = None,
) -> list[EmanationTrace]:
    """Labeled traces for every (key, repeat), independent noise streams.

    Each trace owns an RNG stream derived from (master seed, key index,
    repeat), so datasets are reproducible and order-independent; the
    trace records the master seed and the repeat. It is synth_datasets
    with one preset: the repeats are outermost, and each trace equals
    apply_channel on the key's clean waveform with stream=(seed, repeat).
    """
    return synth_datasets(keys, [preset], repeats, sample_rate, master_seed)[0]


# --- preset registry ---------------------------------------------------


def preset_from_document(doc: object, source: str | Path) -> ChannelPreset:
    """The preset a parsed JSON document holds; anything else raises
    FileFormatError naming ``source``."""
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        return ChannelPreset.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{source}: not a channel preset: {exc}") from exc


def load_preset(path: str | Path) -> ChannelPreset:
    """Parse a preset file; a file that is no valid preset raises FileFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise FileFormatError(f"{path}: not a channel preset: {exc}") from exc
    return preset_from_document(doc, path)


def _builtin_preset_dir():
    return resources.files("emanakey").joinpath("data/presets")


def available_presets() -> list[str]:
    names = []
    for entry in _builtin_preset_dir().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def get_preset(name: str) -> ChannelPreset:
    """Builtin preset by name, or any preset file by path."""
    candidate = _builtin_preset_dir().joinpath(f"{name}.json")
    if candidate.is_file():
        return load_preset(candidate)
    if Path(name).is_file():
        return load_preset(name)
    raise UnknownPresetError(
        f"unknown preset {name!r}; available: {', '.join(available_presets())}"
    )
