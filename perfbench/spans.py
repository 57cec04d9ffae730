"""In-memory span recorder for the traced run, and the wrappers that feed it.

The traced run replaces selected public functions of the emanakey package,
in the module namespaces their callers read them from, with wrappers that
record one span per call: name, start, end, parent span, thread id, the
phase of the run (set-up or loop) and a few counts taken from the
arguments or the result. No file of the package changes, and `installed`
puts every original attribute back when it exits. Spans stay in memory
until the run ends; `layer_metrics` turns them into per-layer numbers and
`write_spans` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass

# (module the caller reads the name from, attribute, span name). A function
# imported into two modules is wrapped in both, under one span name:
# `sweep` binds `detect`, `synth_dataset` and `inject_glitch` at import,
# `edges` binds `build_keystroke_transaction`, and `run_glitch_sweep` and
# `synth_dataset` import `radiate` and `build_keystroke_transaction` from
# `channel` and `frames` when they run.
TARGETS = (
    ("emanakey.sweep", "run_preset_sweep", "sweep"),
    ("emanakey.sweep", "run_glitch_sweep", "sweep"),
    ("emanakey.sweep", "synth_dataset", "channel.synth_dataset"),
    ("emanakey.sweep", "inject_glitch", "channel.inject_glitch"),
    ("emanakey.sweep", "detect", "detector.detect"),
    ("emanakey.channel", "synth_dataset", "channel.synth_dataset"),
    ("emanakey.channel", "radiate", "channel.radiate"),
    ("emanakey.channel", "apply_channel", "channel.apply_channel"),
    ("emanakey.frames", "build_keystroke_transaction", "frames.build_keystroke_transaction"),
    ("emanakey.edges", "build_keystroke_transaction", "frames.build_keystroke_transaction"),
    ("emanakey.edges", "build_reference_set", "edges.build_reference_set"),
    ("emanakey.detector", "detect", "detector.detect"),
    ("emanakey.detector", "normalize", "detector.normalize"),
    ("emanakey.detector", "threshold_and_peaks", "detector.threshold_and_peaks"),
    ("emanakey.traceio", "read_trace", "traceio.read_trace"),
    ("emanakey.traceio", "write_trace", "traceio.write_trace"),
    ("emanakey.traceio", "read_reference_set", "traceio.read_reference_set"),
    ("emanakey.traceio", "write_reference_set", "traceio.write_reference_set"),
)

# A sweep call is a root span: spans its worker threads open take it as
# their parent.
SWEEP_SPAN = "sweep"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    tid: int
    phase: str
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _detect_attrs(args, kwargs, result) -> dict:
    trace, refs = args[0], args[1]
    attrs = {}
    if trace.ground_truth is not None:
        attrs["edges"] = refs[trace.ground_truth].ones
    if result is not None:
        attrs["tie"] = result.tie
    return attrs


def _peaks_attrs(args, kwargs, result) -> dict:
    return {"peaks": 0 if result is None else int(result.size)}


def _file_attrs(args, kwargs, result) -> dict:
    # read_trace(path) and write_trace(trace, path): the path comes last.
    try:
        return {"bytes": os.path.getsize(args[-1])}
    except OSError:
        return {}


# Counts taken after a call's span has ended, so they cost no span time.
# They run on failed calls too, with result None.
ANNOTATE = {
    "detector.detect": _detect_attrs,
    "detector.threshold_and_peaks": _peaks_attrs,
    "traceio.read_trace": _file_attrs,
    "traceio.write_trace": _file_attrs,
}


class Tracer:
    """Collects spans from any thread; parents follow each thread's stack.

    A span opened on a thread with an empty stack (a sweep's worker
    thread) takes the open sweep span, the call that caused it, as its
    parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, annotate, args, kwargs):
        root = name == SWEEP_SPAN
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        if root:
            self._root = sid
        result = None
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            attrs = annotate(args, kwargs, result) if annotate else {}
            if error is not None:
                attrs["error"] = error
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(),
                     self.phase, attrs)
            )

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, annotate, args, kwargs)

        return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def originals() -> dict[tuple[str, str], object]:
    """The current object behind every target attribute."""
    return {
        (module_name, attr): getattr(importlib.import_module(module_name), attr)
        for module_name, attr, _ in TARGETS
    }


def _union_seconds(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# Layers reported as calls / busy_ms / ms_per_call / self_ms, as named.
LAYER_FIELDS = {
    "channel.radiate": ("calls", "busy_ms", "ms_per_call"),
    "channel.apply_channel": ("calls", "busy_ms", "ms_per_call"),
    "channel.inject_glitch": ("calls", "busy_ms"),
    "channel.synth_dataset": ("self_ms",),
    "frames.build_keystroke_transaction": ("calls", "busy_ms"),
    "detector.detect": ("calls", "busy_ms", "ms_per_call", "self_ms"),
    "detector.normalize": ("busy_ms",),
    "detector.threshold_and_peaks": ("busy_ms",),
    "traceio.read_trace": ("calls", "busy_ms", "bytes"),
    "traceio.write_trace": ("calls", "busy_ms", "bytes"),
    "traceio.read_reference_set": ("busy_ms",),
    "traceio.write_reference_set": ("busy_ms",),
    "edges.build_reference_set": ("busy_ms",),
    SWEEP_SPAN: ("self_ms",),
}


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer numbers for one set-up plus one pass of the loop.

    Set-up spans count once; loop spans are divided by the number of
    whole passes the traced loop ran, so counts are exact per pass.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    # Sums per phase, combined once at the end so that whole counts stay
    # whole: set-up + loop / passes.
    sums = {"setup": Counter(), "loop": Counter()}
    for s in spans:
        acc = sums[s.phase]
        if s.name in LAYER_FIELDS:
            covered = _union_seconds(
                (max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())
            )
            acc[s.name, "calls"] += 1
            acc[s.name, "busy"] += s.seconds
            acc[s.name, "self"] += s.seconds - covered
            acc[s.name, "bytes"] += s.attrs.get("bytes", 0)
        if s.name == "detector.detect":
            acc["no_signal"] += s.attrs.get("error") == "NoSignalError"
            acc["ties"] += bool(s.attrs.get("tie"))
            acc["edges"] += s.attrs.get("edges", 0)
        elif s.name == "detector.threshold_and_peaks":
            acc["peaks"] += s.attrs["peaks"]
    total = {
        key: sums["setup"][key] + sums["loop"][key] / passes
        for key in sums["setup"].keys() | sums["loop"].keys()
    }

    out: dict[str, float] = {}
    for name, fields in LAYER_FIELDS.items():
        calls = total.get((name, "calls"), 0)
        busy = total.get((name, "busy"), 0.0)
        values = {
            "calls": calls,
            "busy_ms": 1e3 * busy,
            "ms_per_call": 1e3 * busy / calls if calls else 0.0,
            "self_ms": 1e3 * total.get((name, "self"), 0.0),
            "bytes": total.get((name, "bytes"), 0),
        }
        for field in fields:
            out[f"{name}.{field}"] = values[field]

    loop_detects = [s for s in spans if s.name == "detector.detect" and s.phase == "loop"]
    detect_calls = total.get(("detector.detect", "calls"), 0)
    no_signal = total.get("no_signal", 0)
    edges = total.get("edges", 0)
    union = _union_seconds((s.start, s.end) for s in loop_detects)
    out["detector.peaks_per_edge"] = total.get("peaks", 0) / edges if edges else 0.0
    out["detector.no_signal"] = no_signal
    out["detector.no_signal_share"] = no_signal / detect_calls if detect_calls else 0.0
    out["detector.ties"] = total.get("ties", 0)
    out["sweep.workers"] = float(len({s.tid for s in loop_detects}))
    out["sweep.detect_concurrency"] = (
        sum(s.seconds for s in loop_detects) / union if union else 0.0
    )
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, times in seconds from the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            record = {
                "id": s.id, "name": s.name, "start": s.start - t0,
                "end": s.end - t0, "parent": s.parent, "tid": s.tid,
                "phase": s.phase, **s.attrs,
            }
            fh.write(json.dumps(record) + "\n")
