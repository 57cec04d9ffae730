"""Batch evaluation: preset ladders, noise grids, glitch grids, timing.

A sweep synthesizes labeled datasets, runs the detector over every trace,
and aggregates per-key and per-preset accuracy into a SweepReport. Failed
detections (no-signal) count as incorrect with zero score and margin.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from .channel import (
    DEFAULT_SAMPLE_RATE,
    ChannelPreset,
    EmanationTrace,
    clean_waveform,
    get_preset,
    inject_glitch,
    synth_dataset,
    synth_units,
)
from .detector import DEFAULT_CONFIG, DetectorConfig, detect, detect_batch
from .edges import ReferenceSet
from .errors import NoSignalError
from .keys import KEYS, KeyId
from .traceio import SweepReport, SweepRow

NOISE_BASE_PRESET = "open-space-3.8m"  # the accuracy knee
BENCH_PRESET = "open-space-3m"


def _report(
    kind: str, own: dict, datasets: list[tuple[str, ChannelPreset]],
    units: Iterable[list[EmanationTrace]], refs: ReferenceSet, repeats: int,
    cfg: DetectorConfig, keys, master_seed: int | None,
) -> SweepReport:
    """Detect every (label, preset) dataset's traces and report them all.

    Unit u holds trace u of each dataset, as synth_units makes them. The
    traces go to one detect_batch call as they are made, in unit order;
    it owns the buckets and blocks that bound the samples held however
    many repeats a sweep has, and a row's result does not depend on its
    block, so no byte of the report depends on them. Rows come one per (dataset,
    key), in dataset order with keys in index order inside each; a
    dataset listed twice gets two row groups.
    """
    detections = detect_batch((t for unit in units for t in unit), refs, cfg)
    # Trace t is dataset t % len(datasets) of unit t // len(datasets).
    dataset = np.tile(np.arange(len(datasets)), repeats * len(keys))
    index = np.repeat(np.tile([key.index for key in keys], repeats), len(datasets))
    # A no-signal trace's position -1 picks the appended -1, which no key has.
    key_index = np.array([key.index for key in refs.keys_in_order()] + [-1])
    correct = key_index[detections.key] == index
    score, margin = detections.score, detections.margin
    # Each (dataset, key)'s traces in their order within the dataset.
    order = np.lexsort((index, dataset))
    # A row starts wherever the dataset or the key changes.
    ds, ix = dataset[order], index[order]
    starts = np.flatnonzero((np.diff(ds, prepend=-1) != 0) | (np.diff(ix, prepend=-1) != 0))
    counts = np.diff(starts, append=index.size)
    rows: list[SweepRow | None] = [None] * len(starts)
    # One contiguous (rows, count) block per distinct trace count: the mean
    # of a row sums it pairwise, as np.mean of the key's list does.
    for count in sorted(set(counts.tolist())):
        (which,) = np.nonzero(counts == count)
        block = order[starts[which, None] + np.arange(count)]
        means = zip(
            which.tolist(),
            block[:, 0].tolist(),
            correct[block].sum(axis=1).tolist(),
            score[block].mean(axis=1).tolist(),
            margin[block].mean(axis=1).tolist(),
        )
        for row, first, ok, mean_score, mean_margin in means:
            label, preset = datasets[dataset[first]]
            rows[row] = SweepRow(
                preset=label,
                gain_db=preset.gain_db,
                noise_density=preset.noise_density,
                key=keys[first // len(datasets) % len(keys)].label,
                repeats=count,
                correct=ok,
                mean_score=mean_score,
                mean_margin=mean_margin,
            )
    config = {
        "sweep": kind,
        **own,
        "repeats": repeats,
        "keys": len(keys),
        "sample_rate": DEFAULT_SAMPLE_RATE,
        "master_seed": master_seed if master_seed is not None else "preset",
    }
    return SweepReport(rows, config=config)


def run_preset_sweep(
    preset_names: list[str],
    refs: ReferenceSet,
    repeats: int = 10,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    keys: tuple[KeyId, ...] = KEYS,
    master_seed: int | None = None,
) -> SweepReport:
    """Accuracy over a ladder of named presets (or preset file paths).

    The datasets come from one synth_units pass: rungs that share a seed
    and impairment fields (the open-space ladder under a master seed)
    draw each (key, repeat)'s noise, interferers and glitches once, and
    differ only in signal scale.
    """
    presets = [get_preset(name) for name in preset_names]
    return _report(
        "preset", {"presets": ",".join(preset_names)},
        [(preset.name, preset) for preset in presets],
        synth_units(list(keys), presets, repeats=repeats, master_seed=master_seed),
        refs, repeats, cfg, keys, master_seed,
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
    return _report(
        "noise", {"base_preset": NOISE_BASE_PRESET, "gain_db": base.gain_db},
        [(preset.name, preset) for preset in presets],
        synth_units(list(keys), presets, repeats=repeats, master_seed=master_seed),
        refs, repeats, cfg, keys, master_seed,
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
    # inject_glitch copies the samples, so every count shares one base trace.
    units = (
        [
            inject_glitch(
                t, count, seed=(i * 7919 + count),
                base_amplitude=signal_peak[t.ground_truth],
            )
            for count in glitch_counts
        ]
        for i, (t,) in enumerate(
            synth_units(list(keys), [base], repeats=repeats, master_seed=master_seed)
        )
    )
    own = {
        "base_preset": base_preset,
        "counts": ",".join(str(c) for c in glitch_counts),
    }
    datasets = [(f"glitch-{count}", base) for count in glitch_counts]
    return _report("glitch", own, datasets, units, refs, repeats, cfg, keys, master_seed)


def bench_detect(
    refs: ReferenceSet,
    cfg: DetectorConfig = DEFAULT_CONFIG,
    iterations: int = 200,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
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
        "within_budget": bool(arr.mean() * 1e3 < 1.0),  # the mean's verdict
    }
