"""Command-line entry point.

Commands: gen-refs, synth, detect, sweep, bench, show-frame. Exit codes:
0 success, 2 usage error (argparse), 3 data/file error, 4 detection
failure (no usable signal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .bits import int_from_bits
from .channel import DEFAULT_SAMPLE_RATE, PRESET_LIMITS, get_preset, synth_units
from .detector import DEFAULT_CONFIG, DetectorConfig, detect_batch
from .edges import build_reference_set, edges_analytic, min_pairwise_distance
from .errors import EmanakeyError, NoSignalError
from .frames import build_keystroke_transaction
from .keys import KEYS, hid_report_for_key, key_by_label
from .sweep import bench_detect, run_glitch_sweep, run_noise_sweep, run_preset_sweep
from .traceio import (
    read_reference_set,
    read_trace,
    write_reference_set,
    write_report,
    write_trace,
)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NO_SIGNAL = 4


def _atomic_write(path: Path, writer) -> None:
    # write-then-rename: an interrupted run leaves no partial report
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name)
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_keys(spec: str):
    if spec == "all":
        return list(KEYS)
    return [key_by_label(label) for label in spec.split(",")]


def _positive(kind: type):
    """An argparse type: the spec read as ``kind`` (int or float), finite and > 0."""
    name = "an integer" if kind is int else "a finite number"

    def parse(spec: str):
        try:
            value = kind(spec)
            if not 0 < value < np.inf:
                raise ValueError(spec)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {name} > 0, got {spec!r}") from None
        return value

    return parse


def _seed(spec: str) -> int:
    """A master seed: an integer >= 0, as NumPy's seeding takes."""
    try:
        value = int(spec)
        if value < 0:
            raise ValueError(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {spec!r}") from None
    return value


# 40x the default rate. One capture window is then about 121,000 samples,
# and synthesizing an office-12m trace peaks near 160 MB; at 1e11 it took
# 640 MB, and far above that the window cannot be allocated at all.
MAX_SAMPLE_RATE = 1e10  # Hz


def _sample_rate(spec: str) -> float:
    """A synthesis sample rate: whole hertz, as trace files store it, above
    twice the detector's upper band edge and at most MAX_SAMPLE_RATE."""
    rate = _positive(float)(spec)
    nyquist = 2 * DEFAULT_CONFIG.band_high
    if not (nyquist < rate <= MAX_SAMPLE_RATE and rate % 1 == 0):
        raise argparse.ArgumentTypeError(
            f"expected a sample rate in whole hertz above {nyquist:g} Hz and at "
            f"most {MAX_SAMPLE_RATE:g} Hz, got {spec!r}"
        )
    return rate


def _noise_grid(spec: str) -> list[float]:
    """'lo:hi:n': n geometric steps from lo to hi, every density in (0, limit]."""
    limit = PRESET_LIMITS["noise_density"]
    try:
        lo, hi, n = spec.split(":")
        densities = list(np.geomspace(float(lo), float(hi), int(n)))
        if not densities or not all(0 < d <= limit for d in densities):
            raise ValueError(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:n with lo and hi in (0, {limit:g}] and n >= 1, got {spec!r}"
        ) from None
    return densities


def _glitch_grid(spec: str) -> list[int]:
    """Comma-separated glitch counts, each >= 0."""
    try:
        counts = [int(c) for c in spec.split(",")]
        if min(counts) < 0:
            raise ValueError(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated counts >= 0, got {spec!r}"
        ) from None
    return counts


def cmd_gen_refs(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        print(f"error: {out} exists; pass --force to overwrite", file=sys.stderr)
        return EXIT_DATA
    refs = build_reference_set(method=args.method)
    _atomic_write(out, lambda tmp: write_reference_set(refs, tmp))
    d_min, ka, kb = min_pairwise_distance(refs)
    print(
        f"wrote {len(refs)} references ({args.method}) to {out}; "
        f"min pairwise distance {d_min} ({ka.label!r} vs {kb.label!r})"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    keys = _parse_keys(args.keys)
    preset = get_preset(args.preset)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each trace is written as it is made, so no more than one is held.
    units = synth_units(
        keys,
        [preset],
        repeats=args.repeats,
        sample_rate=args.sample_rate,
        master_seed=args.seed,
    )
    for i, (trace,) in enumerate(units):
        repeat, key = divmod(i, len(keys))
        name = f"{key:03d}_{_safe(trace.ground_truth.label)}_r{repeat}.emtr"
        write_trace(trace, out_dir / name)
    print(f"wrote {args.repeats * len(keys)} traces to {out_dir}")
    return EXIT_OK


def _safe(label: str) -> str:
    table = {".": "period", ",": "comma"}
    return table.get(label, label)


def _load_refs(path: str):
    return read_reference_set(path) if path else build_reference_set()


def _load_config(path: str | None) -> DetectorConfig:
    return DetectorConfig.from_file(path) if path else DEFAULT_CONFIG


def cmd_detect(args) -> int:
    refs = _load_refs(args.refs)
    cfg = _load_config(args.config)
    paths: list[Path]
    if args.trace_dir:
        paths = sorted(Path(args.trace_dir).glob("*.emtr"))
        if not paths:
            print(f"error: no .emtr traces in {args.trace_dir}", file=sys.stderr)
            return EXIT_DATA
    else:
        paths = [Path(args.trace)]

    truths = []

    def read_each():
        for path in paths:
            trace = read_trace(path)
            truths.append(trace.ground_truth)
            yield trace

    # detect_batch takes each file as it is read and holds no more than a
    # block of samples, however many files the directory holds.
    results = detect_batch(read_each(), refs, cfg)
    correct = scored = 0
    rc = EXIT_OK
    for path, truth, result in zip(paths, truths, results):
        if isinstance(result, NoSignalError):
            print(f"{path.name}: NO-SIGNAL ({result})")
            rc = EXIT_NO_SIGNAL
            continue
        tie = " tie" if result.tie else ""
        print(
            f"{path.name}: {result.key.label} score={result.score:.4f} "
            f"runner-up={result.runner_up.label}@{result.runner_up_score:.4f} "
            f"offset={result.alignment_offset}{tie} truth={truth.label if truth else '?'}"
        )
        if truth is not None:
            scored += 1
            correct += result.key == truth
    if scored > 1:
        print(f"summary: {correct}/{scored} correct ({correct / scored:.1%})")
    return rc


def cmd_sweep(args) -> int:
    refs = _load_refs(args.refs)
    cfg = _load_config(args.config)
    if args.noise_grid:
        report = run_noise_sweep(
            args.noise_grid, refs, repeats=args.repeats, cfg=cfg, master_seed=args.seed
        )
    elif args.glitch_grid:
        report = run_glitch_sweep(
            args.glitch_grid, refs, repeats=args.repeats, cfg=cfg, master_seed=args.seed
        )
    else:
        report = run_preset_sweep(
            args.preset_grid, refs, repeats=args.repeats, cfg=cfg, master_seed=args.seed
        )
    out = Path(args.out)
    _atomic_write(out, lambda tmp: write_report(report, tmp, fmt=args.format))
    for preset, acc in report.accuracy_by_preset().items():
        print(f"{preset}: accuracy {acc:.4f}")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    refs = _load_refs(args.refs)
    cfg = _load_config(args.config)
    stats = bench_detect(refs, cfg, iterations=args.iters)
    verdict = "within" if stats["within_budget"] else "OVER"
    budget = f"{stats['budget_ms']:.0f} ms polling budget"
    print(
        f"detect latency over {stats['iterations']} runs: "
        f"mean {stats['mean_ms']:.3f} ms, p95 {stats['p95_ms']:.3f} ms, "
        f"max {stats['max_ms']:.3f} ms -> the mean is {verdict} the {budget}"
    )
    if stats["max_ms"] > stats["budget_ms"]:
        print(f"warning: the slowest run, {stats['max_ms']:.3f} ms, is over the {budget}",
              file=sys.stderr)
    if args.out:
        _atomic_write(
            Path(args.out),
            lambda tmp: Path(tmp).write_text(json.dumps(stats, indent=2) + "\n"),
        )
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_show_frame(args) -> int:
    key = key_by_label(args.key)
    report = hid_report_for_key(key)
    frame = build_keystroke_transaction(key)
    series = edges_analytic(frame)

    print(f"key {key.label!r} (index {key.index})")
    print(f"hid report: {report.to_bytes().hex(' ')}")
    print(
        f"frame: {len(frame.packets)} packets, {frame.duration_s * 1e6:.2f} us, "
        f"capture window {frame.slot_count('capture')} slots"
    )
    for packet in frame.packets:
        bits = packet.bits()
        stuffed = packet.stuffed_bits()
        crc = f" crc=0x{packet.crc:04X}" if packet.crc is not None else ""
        print(
            f"  {packet.kind.name}: {len(bits)} bits "
            f"({len(stuffed) - len(bits)} stuffed){crc}"
        )
        if args.format == "bits":
            print(f"    {''.join(map(str, stuffed))}")
        elif args.format == "symbols":
            print(f"    {''.join(s.name[0] if s.name != 'SE0' else '0' for s in packet.line_states())}")
        elif args.format == "hex":
            raw = bytes(
                int_from_bits(bits[n : n + 8]) for n in range(0, len(bits), 8)
            )
            print(f"    {raw.hex(' ')}")
    print(f"edge series: {series.ones} edges in {len(series)} slots")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emanakey",
        description="USB keyboard emanation keystroke detection toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-refs", help="generate and save the 70-key reference set")
    p.add_argument("--method", choices=["analytic", "pipeline"], default="analytic")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_refs)

    p = sub.add_parser("synth", help="synthesize labeled emanation traces")
    p.add_argument("--keys", default="all", help="'all' or comma-separated labels")
    p.add_argument("--preset", required=True)
    p.add_argument("--repeats", type=_positive(int), default=2)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--sample-rate", type=_sample_rate, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="detect the keystroke in a trace file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--trace")
    group.add_argument("--trace-dir")
    p.add_argument("--refs", default=None, help="reference file (default: rebuild)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="accuracy sweeps over presets/noise/glitches")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset-grid", type=lambda spec: spec.split(","),
                       help="comma-separated preset names")
    group.add_argument("--noise-grid", type=_noise_grid,
                       help="lo:hi:n geometric noise-density grid")
    group.add_argument("--glitch-grid", type=_glitch_grid,
                       help="comma-separated glitch counts")
    p.add_argument("--repeats", type=_positive(int), default=10)
    p.add_argument("--refs", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="measure per-detection latency")
    p.add_argument("--iters", type=_positive(int), default=200)
    p.add_argument("--refs", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("show-frame", help="dump a keystroke transaction")
    p.add_argument("--key", required=True)
    p.add_argument("--format", choices=["packets", "bits", "symbols", "hex"],
                   default="packets")
    p.set_defaults(func=cmd_show_frame)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoSignalError as exc:
        print(f"no signal: {exc}", file=sys.stderr)
        return EXIT_NO_SIGNAL
    except (EmanakeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
