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


def _evaluate(
    traces, refs: ReferenceSet, cfg: DetectorConfig
) -> dict[KeyId, list[tuple[bool, float, float]]]:
    """Detect every trace in one batch; records keep the traces' order."""
    outcomes: dict[KeyId, list[tuple[bool, float, float]]] = {}
    for trace, result in zip(traces, detect_batch(traces, refs, cfg)):
        if isinstance(result, NoSignalError):
            record = (False, 0.0, 0.0)
        else:
            record = (result.key == trace.ground_truth, result.score, result.margin)
        outcomes.setdefault(trace.ground_truth, []).append(record)
    return outcomes


def _rows_for(
    preset: ChannelPreset,
    outcomes: dict[KeyId, list[tuple[bool, float, float]]],
    label: str | None = None,
) -> list[SweepRow]:
    rows = []
    for key in sorted(outcomes, key=lambda k: k.index):
        records = outcomes[key]
        rows.append(
            SweepRow(
                preset=label or preset.name,
                gain_db=preset.gain_db,
                noise_density=preset.noise_density,
                key=key.label,
                repeats=len(records),
                correct=sum(1 for ok, _, _ in records if ok),
                mean_score=float(np.mean([s for _, s, _ in records])),
                mean_margin=float(np.mean([m for _, _, m in records])),
            )
        )
    return rows


def run_preset_sweep(
    preset_names: list[str],
    refs: ReferenceSet,
    repeats: int = 10,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    keys: tuple[KeyId, ...] = KEYS,
    sample_rate: float = 250e6,
    master_seed: int | None = None,
) -> SweepReport:
    """Accuracy over a ladder of named presets (or preset file paths)."""
    rows: list[SweepRow] = []
    for name in preset_names:
        preset = get_preset(name)
        traces = synth_dataset(
            list(keys), preset, repeats=repeats, sample_rate=sample_rate,
            master_seed=master_seed,
        )
        rows.extend(_rows_for(preset, _evaluate(traces, refs, cfg)))
    config = {
        "sweep": "preset",
        "presets": ",".join(preset_names),
        "repeats": repeats,
        "keys": len(keys),
        "sample_rate": sample_rate,
        "master_seed": master_seed if master_seed is not None else "preset",
    }
    return SweepReport(rows, config=config)


def run_noise_sweep(
    noise_densities: list[float],
    refs: ReferenceSet,
    gain_db: float | None = None,
    base_preset: str = "open-space-3.8m",
    repeats: int = 10,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    keys: tuple[KeyId, ...] = KEYS,
    sample_rate: float = 250e6,
    master_seed: int | None = None,
) -> SweepReport:
    """Accuracy versus noise density at fixed gain."""
    base = get_preset(base_preset)
    if gain_db is not None:
        base = replace(base, gain_db=gain_db)
    rows: list[SweepRow] = []
    for density in noise_densities:
        preset = replace(base, noise_density=density, name=f"noise-{density:.3g}")
        traces = synth_dataset(
            list(keys), preset, repeats=repeats, sample_rate=sample_rate,
            master_seed=master_seed,
        )
        rows.extend(_rows_for(preset, _evaluate(traces, refs, cfg)))
    config = {
        "sweep": "noise",
        "base_preset": base_preset,
        "gain_db": base.gain_db,
        "repeats": repeats,
        "keys": len(keys),
        "sample_rate": sample_rate,
        "master_seed": master_seed if master_seed is not None else "preset",
    }
    return SweepReport(rows, config=config)


def run_glitch_sweep(
    glitch_counts: list[int],
    refs: ReferenceSet,
    base_preset: str = "open-space-3m",
    repeats: int = 4,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    keys: tuple[KeyId, ...] = KEYS,
    sample_rate: float = 250e6,
    master_seed: int | None = None,
) -> SweepReport:
    """Accuracy versus injected glitch count on top of a base preset.

    Burst amplitude is anchored to the preset's wanted-signal level, not
    the raw trace maximum: FM interference dominates raw amplitude at
    ladder gains but never reaches the detector.
    """
    base = get_preset(base_preset)
    signal_scale = 10.0 ** ((base.gain_db - base.shielding_db) / 20.0)
    signal_scale *= base.body_coupling_gain
    signal_peak = {
        key: float(np.abs(clean_waveform(key, sample_rate=sample_rate)).max())
        * signal_scale
        for key in dict.fromkeys(keys)
    }
    # inject_glitch copies the samples, so every count shares one dataset.
    traces = synth_dataset(
        list(keys), base, repeats=repeats, sample_rate=sample_rate,
        master_seed=master_seed,
    )
    rows: list[SweepRow] = []
    for count in glitch_counts:
        glitched = [
            inject_glitch(
                t, count, seed=(i * 7919 + count),
                base_amplitude=signal_peak[t.ground_truth],
            )
            for i, t in enumerate(traces)
        ]
        rows.extend(
            _rows_for(base, _evaluate(glitched, refs, cfg), label=f"glitch-{count}")
        )
    config = {
        "sweep": "glitch",
        "base_preset": base_preset,
        "counts": ",".join(str(c) for c in glitch_counts),
        "repeats": repeats,
        "keys": len(keys),
        "sample_rate": sample_rate,
        "master_seed": master_seed if master_seed is not None else "preset",
    }
    return SweepReport(rows, config=config)


def bench_detect(
    refs: ReferenceSet,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    iterations: int = 200,
    sample_rate: float = 250e6,
    preset_name: str = "open-space-3m",
) -> dict:
    """Wall-clock per-detection latency, synthesis and I/O excluded.

    The polling interval gives the real-time budget: a detector must keep
    up with one report frame per millisecond.
    """
    preset = get_preset(preset_name)
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
        "preset": preset_name,
        "sample_rate": sample_rate,
        "mean_ms": float(arr.mean() * 1e3),
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p95_ms": float(np.percentile(arr, 95) * 1e3),
        "max_ms": float(arr.max() * 1e3),
        "budget_ms": 1.0,
        "within_budget": bool(arr.mean() * 1e3 < 1.0),
    }
