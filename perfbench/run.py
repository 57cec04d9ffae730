"""emanakey benchmark: sweep throughput, replay latency, accuracy, per layer.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each workload runs in a process of its own. The run sets up several times
and reports the median set-up time, then loops over whole passes of the
workload's fixed inputs until ``--seconds`` have passed, then checks its
outputs. It prints the machine and configuration, every metric by name and
unit, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` gives the end-to-end metrics from an untraced loop.
``--trace 1`` spends half the time untraced and half with every target of
``spans.TARGETS`` wrapped, reports per-layer numbers for one set-up plus
one pass, the tracing overhead between the two halves, and writes the
spans to ``.perfbench/spans-<workload>-seed<n>.jsonl``.

``attempted`` counts the traces the loops processed plus the output checks
made; ``failed`` counts traces whose operation raised or failed a check,
plus the checks that failed. The output checks: the identity preset
detects every key; "pipeline" references equal "analytic" ones; every EMTR
and EMRF file reads back as written; every pass gives the answers of the
first; the traced loop gives the untraced loop's answers; and removing the
wrappers restores every wrapped attribute.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BUDGET_MS = 1.0  # one USB poll interval
THREAD_CAP_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_threads() -> dict[str, str]:
    """Cap native thread pools at nproc; must run before numpy is imported."""
    for var in THREAD_CAP_VARS:
        os.environ.setdefault(var, str(_nproc()))
    return {var: os.environ[var] for var in THREAD_CAP_VARS}


def _machine(caps: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "os_cpu_count": os.cpu_count(),
        "sweep_workers": min(4, os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
        "thread_caps": caps,
    }


class _Tally:
    """Attempted and failed operations, and the problems behind failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def traces(self, count: int, problems: list[str]) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(problems)


def _run_op(op, tally: _Tally, reference):
    """Run one op, count it, and compare its outcome with ``reference``."""
    from perfbench.workloads import OpResult

    try:
        result = op.run()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        result = OpResult(0.0, None, {}, [f"op raised {type(exc).__name__}: {exc}"])
    problems = list(result.problems)
    if reference is not None and result.outcome != reference.outcome:
        problems.append("outcome differs from the first untraced pass")
    tally.traces(op.traces, problems)
    return result


@dataclass
class _Loop:
    first: list  # the OpResults of the first pass
    seconds: list[float]  # every op's timed seconds, pass after pass
    passes: int = 0

    def seconds_per_trace(self, ops) -> float:
        return sum(self.seconds) / (self.passes * sum(op.traces for op in ops))


def _loop(ops, seconds: float, tally: _Tally, reference=None) -> _Loop:
    """Whole passes over ``ops`` until ``seconds`` have passed; at least one.

    Every pass is compared op by op with ``reference`` (a pass), or with
    the loop's own first pass when none is given. Only the first pass's
    results are kept, so memory does not grow with the run's length.
    """
    loop = _Loop([], [])
    deadline = time.perf_counter() + seconds
    while loop.passes == 0 or time.perf_counter() < deadline:
        ref = reference or loop.first or [None] * len(ops)
        results = [_run_op(op, tally, r) for op, r in zip(ops, ref)]
        loop.first = loop.first or results
        loop.seconds.extend(r.seconds for r in results)
        loop.passes += 1
    return loop


def _groups(first_pass) -> dict[str, tuple[int, int]]:
    total: dict[str, tuple[int, int]] = {}
    for result in first_pass:
        for group, (c, n) in result.groups.items():
            c0, n0 = total.get(group, (0, 0))
            total[group] = (c0 + c, n0 + n)
    return total


def measure(workload, seconds: float, trace: bool, setup_repeats: int = 1) -> dict:
    """Set up, loop, check; the result dict without the machine record."""
    import numpy as np

    from perfbench import spans, workloads

    tally = _Tally()
    setup_times = []
    for _ in range(setup_repeats):
        start = time.perf_counter()
        problems = workload.setup()
        setup_times.append(time.perf_counter() - start)
        tally.check(problems)
    ops = workload.ops()
    loop_seconds = seconds / 2 if trace else seconds
    untraced = _loop(ops, loop_seconds, tally)
    groups = _groups(untraced.first)
    extra: dict = {}

    if not trace:
        # Percentiles within each pass, averaged over passes. The host this
        # was tuned on switches between CPU speed levels about 1.5x apart
        # for seconds at a time; a mean moves smoothly with the share of
        # time at each level, a whole-run percentile jumps between them.
        per_pass = 1e3 * np.array(untraced.seconds).reshape(untraced.passes, len(ops))
        correct = sum(c for c, _ in groups.values())
        attempted = sum(n for _, n in groups.values())
        metrics = {
            "traces_per_s": 1.0 / untraced.seconds_per_trace(ops),
            "latency_p50_ms": float(np.mean(np.median(per_pass, axis=1))),
            "latency_p99_ms": float(np.mean(np.percentile(per_pass, 99, axis=1))),
            "accuracy": correct / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra["latency_samples"] = int(per_pass.size)
        if workload.name == workloads.TraceReplay.name:
            no_signal = sum(r.outcome == "no-signal" for r in untraced.first)
            extra["no_signal_share"] = no_signal / len(untraced.first)
    else:
        before = spans.originals()
        tracer = spans.Tracer()
        with spans.installed(tracer):
            tally.check(workload.setup())
            tracer.phase = "loop"
            traced = _loop(workload.ops(), loop_seconds, tally, reference=untraced.first)
        after = spans.originals()
        tally.check([
            f"{module}.{attr} not restored"
            for (module, attr), fn in before.items() if after[(module, attr)] is not fn
        ])
        metrics = spans.layer_metrics(tracer.spans, traced.passes)
        for group in workloads.GROUPS:
            metrics[f"sweep.correct.{group}"] = float(groups.get(group, (0, 0))[0])
        overhead = traced.seconds_per_trace(ops) / untraced.seconds_per_trace(ops)
        metrics["tracing.overhead_pct"] = 100.0 * (overhead - 1.0)
        extra["traced_passes"] = traced.passes
        extra["spans"] = tracer.spans

    tally.check(workloads.identity_check(workload.keys, workload.seed))
    extra.update(
        passes=untraced.passes,
        groups={g: {"correct": c, "attempted": n, "accuracy": c / n}
                for g, (c, n) in groups.items()},
        error_share=tally.failed / tally.attempted,
        problems=tally.problems,
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "extra": extra,
    }


def _print_report(workload, result: dict, units: dict[str, str]) -> None:
    extra = result["extra"]
    print(f"workload {workload.name}: {json.dumps(workload.sizes())}, "
          f"{extra['passes']} untraced passes")
    for name, value in result["metrics"].items():
        note = ""
        if name.startswith("latency_") and workload.name == "trace-replay":
            note = (f"  (read+detect of one trace, {extra['latency_samples']} samples, "
                    f"budget {BUDGET_MS:g} ms; within each pass, mean over passes)")
        elif name.startswith("latency_"):
            note = (f"  (one round: ladder sweep then glitch sweep, "
                    f"{extra['latency_samples']} samples; within each pass, mean over passes)")
        print(f"  {name:42s} {value:14.6g} {units[name]}{note}")
    for group, g in extra["groups"].items():
        print(f"  accuracy[{group}] {g['correct']}/{g['attempted']} = {g['accuracy']:.4f}")
    if "no_signal_share" in extra:
        print(f"  no_signal_share {extra['no_signal_share']:.6f}")
    print(f"  error_share {extra['error_share']:.6f} "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in extra["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")


def run_one(args) -> int:
    caps = _cap_threads()
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import emanakey
    except ImportError as exc:
        print(f"error: cannot import emanakey from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(emanakey.__file__).resolve().is_relative_to(src):
        print(f"error: emanakey imported from {emanakey.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench import spans, workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        machine = _machine(caps)
        workload = workloads.make(args.workload, args.seed, workdir)
        config = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_repeats": workload.setup_repeats,
            "sizes": workload.sizes(), "machine": machine,
        }
        print("config: " + json.dumps(config))
        result = measure(
            workload, args.seconds, bool(args.trace),
            setup_repeats=1 if args.trace else workload.setup_repeats,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = result.pop("extra")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[section]}
    if args.trace:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_spans(extra["spans"], path)
        print(f"spans: {len(extra['spans'])} written to {path.relative_to(ROOT)}, "
              f"{extra['traced_passes']} traced passes")
    _print_report(workload, {**result, "extra": extra}, units)
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


def run_all(args, names: list[str]) -> int:
    """Every workload, each in a process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec()["workloads"]]
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args, names) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
