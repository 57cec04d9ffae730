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
from .channel import get_preset, synth_dataset
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


def _positive_int(spec: str) -> int:
    """An integer >= 1."""
    try:
        value = int(spec)
        if value < 1:
            raise ValueError(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {spec!r}"
        ) from None
    return value


def _noise_grid(spec: str) -> list[float]:
    """'lo:hi:n': n geometric steps from lo to hi, every density finite and > 0."""
    try:
        lo, hi, n = spec.split(":")
        densities = list(np.geomspace(float(lo), float(hi), int(n)))
        if not densities or not all(0 < d < np.inf for d in densities):
            raise ValueError(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:n with positive lo and hi and n >= 1, got {spec!r}"
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
    traces = synth_dataset(
        keys,
        preset,
        repeats=args.repeats,
        sample_rate=args.sample_rate,
        master_seed=args.seed,
    )
    for i, trace in enumerate(traces):
        repeat, key = divmod(i, len(keys))
        name = f"{key:03d}_{_safe(trace.ground_truth.label)}_r{repeat}.emtr"
        write_trace(trace, out_dir / name)
    print(f"wrote {len(traces)} traces to {out_dir}")
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

    traces = [read_trace(path) for path in paths]
    correct = scored = 0
    rc = EXIT_OK
    for path, trace, result in zip(paths, traces, detect_batch(traces, refs, cfg)):
        truth = trace.ground_truth.label if trace.ground_truth else "?"
        if isinstance(result, NoSignalError):
            print(f"{path.name}: NO-SIGNAL ({result})")
            rc = EXIT_NO_SIGNAL
            continue
        tie = " tie" if result.tie else ""
        print(
            f"{path.name}: {result.key.label} score={result.score:.4f} "
            f"runner-up={result.runner_up.label}@{result.runner_up_score:.4f} "
            f"offset={result.alignment_offset}{tie} truth={truth}"
        )
        if trace.ground_truth is not None:
            scored += 1
            correct += result.key == trace.ground_truth
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
    print(
        f"detect latency over {stats['iterations']} runs: "
        f"mean {stats['mean_ms']:.3f} ms, p95 {stats['p95_ms']:.3f} ms, "
        f"max {stats['max_ms']:.3f} ms -> {verdict} the "
        f"{stats['budget_ms']:.0f} ms polling budget"
    )
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
            print(f"    {''.join(map(str, stuffed.bits))}")
        elif args.format == "symbols":
            print(f"    {''.join(s.name[0] if s.name != 'SE0' else '0' for s in packet.line_states())}")
        elif args.format == "hex":
            raw = bytes(
                sum(b << i for i, b in enumerate(packet.bits().bits[n : n + 8]))
                for n in range(0, len(packet.bits()), 8)
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
    p.add_argument("--repeats", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sample-rate", type=float, default=250e6)
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
    p.add_argument("--repeats", type=_positive_int, default=10)
    p.add_argument("--refs", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="measure per-detection latency")
    p.add_argument("--iters", type=_positive_int, default=200)
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
