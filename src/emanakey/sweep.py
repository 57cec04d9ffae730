"""Batch evaluation: preset ladders, noise grids, glitch grids, timing.

A sweep synthesizes labeled datasets, runs the detector over every trace,
and aggregates per-key and per-preset accuracy into a SweepReport. Failed
detections (no-signal) count as incorrect with zero score and margin.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .channel import (
    DEFAULT_SAMPLE_RATE,
    ChannelPreset,
    clean_waveform,
    get_preset,
    inject_glitch,
    synth_dataset,
)
from .detector import DEFAULT_CONFIG, DetectorConfig, detect, detect_batch
from .edges import ReferenceSet
from .errors import NoSignalError
from .keys import KEYS, KeyId
from .traceio import SweepReport, SweepRow

NOISE_BASE_PRESET = "open-space-3.8m"  # the accuracy knee
BENCH_PRESET = "open-space-3m"


def _rows(
    label: str, preset: ChannelPreset, traces, refs: ReferenceSet, cfg: DetectorConfig
) -> list[SweepRow]:
    """Detect every trace in one batch; one row per key, in key order."""
    outcomes: dict[KeyId, list[tuple[bool, float, float]]] = {}
    for trace, result in zip(traces, detect_batch(traces, refs, cfg)):
        if isinstance(result, NoSignalError):
            record = (False, 0.0, 0.0)
        else:
            record = (result.key == trace.ground_truth, result.score, result.margin)
        outcomes.setdefault(trace.ground_truth, []).append(record)
    return [
        SweepRow(
            preset=label,
            gain_db=preset.gain_db,
            noise_density=preset.noise_density,
            key=key.label,
            repeats=len(records),
            correct=sum(1 for ok, _, _ in records if ok),
            mean_score=float(np.mean([s for _, s, _ in records])),
            mean_margin=float(np.mean([m for _, _, m in records])),
        )
        for key, records in sorted(outcomes.items(), key=lambda kv: kv[0].index)
    ]


def _report(
    kind: str, own: dict, rows: list[SweepRow], repeats: int, keys,
    master_seed: int | None,
) -> SweepReport:
    """The config keys every sweep writes, around the kind's own keys."""
    config = {
        "sweep": kind,
        **own,
        "repeats": repeats,
        "keys": len(keys),
        "sample_rate": DEFAULT_SAMPLE_RATE,
        "master_seed": master_seed if master_seed is not None else "preset",
    }
    return SweepReport(rows, config=config)


def _preset_report(
    kind: str, own: dict, presets: list[ChannelPreset], refs: ReferenceSet,
    repeats: int, cfg: DetectorConfig, keys, master_seed: int | None,
) -> SweepReport:
    """Synthesize and detect one dataset per preset."""
    rows: list[SweepRow] = []
    for preset in presets:
        traces = synth_dataset(
            list(keys), preset, repeats=repeats, master_seed=master_seed
        )
        rows.extend(_rows(preset.name, preset, traces, refs, cfg))
    return _report(kind, own, rows, repeats, keys, master_seed)


def run_preset_sweep(
    preset_names: list[str],
    refs: ReferenceSet,
    repeats: int = 10,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    keys: tuple[KeyId, ...] = KEYS,
    master_seed: int | None = None,
) -> SweepReport:
    """Accuracy over a ladder of named presets (or preset file paths)."""
    presets = [get_preset(name) for name in preset_names]
    return _preset_report(
        "preset", {"presets": ",".join(preset_names)},
        presets, refs, repeats, cfg, keys, master_seed,
    )


def run_noise_sweep(
    noise_densities: list[float],
    refs: ReferenceSet,
    gain_db: float | None = None,
    repeats: int = 10,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    keys: tuple[KeyId, ...] = KEYS,
    master_seed: int | None = None,
) -> SweepReport:
    """Accuracy versus noise density at fixed gain, on NOISE_BASE_PRESET."""
    base = get_preset(NOISE_BASE_PRESET)
    if gain_db is not None:
        base = replace(base, gain_db=gain_db)
    presets = [
        replace(base, noise_density=density, name=f"noise-{density:.3g}")
        for density in noise_densities
    ]
    return _preset_report(
        "noise", {"base_preset": NOISE_BASE_PRESET, "gain_db": base.gain_db},
        presets, refs, repeats, cfg, keys, master_seed,
    )


def run_glitch_sweep(
    glitch_counts: list[int],
    refs: ReferenceSet,
    base_preset: str = "open-space-3m",
    repeats: int = 4,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    keys: tuple[KeyId, ...] = KEYS,
    master_seed: int | None = None,
) -> SweepReport:
    """Accuracy versus injected glitch count on top of a base preset.

    Burst amplitude is anchored to the preset's wanted-signal level, not
    the raw trace maximum: FM interference dominates raw amplitude at
    ladder gains but never reaches the detector.
    """
    base = get_preset(base_preset)
    signal_peak = {
        key: float(np.abs(clean_waveform(key)).max()) * base.signal_scale
        for key in dict.fromkeys(keys)
    }
    # inject_glitch copies the samples, so every count shares one dataset.
    traces = synth_dataset(list(keys), base, repeats=repeats, master_seed=master_seed)
    rows: list[SweepRow] = []
    for count in glitch_counts:
        glitched = [
            inject_glitch(
                t, count, seed=(i * 7919 + count),
                base_amplitude=signal_peak[t.ground_truth],
            )
            for i, t in enumerate(traces)
        ]
        rows.extend(_rows(f"glitch-{count}", base, glitched, refs, cfg))
    own = {
        "base_preset": base_preset,
        "counts": ",".join(str(c) for c in glitch_counts),
    }
    return _report("glitch", own, rows, repeats, keys, master_seed)


def bench_detect(
    refs: ReferenceSet,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    iterations: int = 200,
    sample_rate: float = 250e6,
) -> dict:
    """Wall-clock per-detection latency on BENCH_PRESET traces, synthesis
    and I/O excluded.

    The polling interval gives the real-time budget: a detector must keep
    up with one report frame per millisecond.
    """
    preset = get_preset(BENCH_PRESET)
    keys = list(KEYS)
    traces = synth_dataset(keys, preset, repeats=1, sample_rate=sample_rate)
    detect(traces[0], refs, cfg)  # warm caches
    times = []
    for i in range(iterations):
        trace = traces[i % len(traces)]
        t0 = time.perf_counter()
        try:
            detect(trace, refs, cfg)
        except NoSignalError:
            pass
        times.append(time.perf_counter() - t0)
    arr = np.asarray(times)
    return {
        "iterations": iterations,
        "preset": BENCH_PRESET,
        "sample_rate": sample_rate,
        "mean_ms": float(arr.mean() * 1e3),
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p95_ms": float(np.percentile(arr, 95) * 1e3),
        "max_ms": float(arr.max() * 1e3),
        "budget_ms": 1.0,
        "within_budget": bool(arr.mean() * 1e3 < 1.0),
    }
