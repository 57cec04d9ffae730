"""The benchmark's workloads: set-up, one pass of timed operations, checks.

A workload is built from a seed and its sizes, and the package sees only
the inputs generated from them. `setup()` builds what the timed loop needs
and returns the problems its output checks found. `ops()` gives one pass
over the workload's fixed inputs. Each op times only the calls a user waits
for and returns what they produced, so the runner can check that every
pass, traced or not, gives the same answers.

The package is driven through its public modules only, always read as
module attributes (`sweep.run_preset_sweep`, `detector.detect`, ...) so
that the traced run's wrappers see every call.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from emanakey import channel, detector, edges, sweep, traceio
from emanakey.errors import NoSignalError
from emanakey.keys import KEYS

LADDER = ("open-space-0.5m", "open-space-2.5m", "open-space-3m", "open-space-3.8m")
GLITCH_COUNTS = (0, 1, 2, 4, 8)
GLITCH_BASE = "open-space-3m"
REPLAY_PRESET = "office-12m"

# Accuracy groups, each reported as a per-layer count of correct traces:
# the sweeps' rungs and glitch counts, then the replay preset.
GROUPS = LADDER + tuple(f"glitch-{c}" for c in GLITCH_COUNTS) + (REPLAY_PRESET,)


@dataclass
class OpResult:
    seconds: float
    # Compared across passes, and between the traced and untraced runs.
    outcome: object
    # group -> (correct, attempted)
    groups: dict[str, tuple[int, int]]
    problems: list[str]


@dataclass
class Op:
    traces: int
    run: Callable[[], OpResult]


def _reference_sets(problems: list[str]):
    analytic = edges.build_reference_set("analytic")
    pipeline = edges.build_reference_set("pipeline")
    if pipeline.entries != analytic.entries:
        problems.append("pipeline references differ from analytic ones")
    return analytic, pipeline


def _warm_up(refs, preset_name: str, seed: int) -> None:
    """One detection, so the detector's filter caches are filled."""
    trace = channel.synth_dataset(
        [KEYS[0]], channel.get_preset(preset_name), repeats=1, master_seed=seed
    )[0]
    try:
        detector.detect(trace, refs)
    except NoSignalError:
        pass


def identity_check(keys, seed: int) -> list[str]:
    """The pass-through channel must detect every key exactly."""
    refs = edges.build_reference_set("analytic")
    traces = channel.synth_dataset(
        list(keys), channel.get_preset("identity"), repeats=1, master_seed=seed
    )
    correct = 0
    for trace in traces:
        try:
            correct += detector.detect(trace, refs).key == trace.ground_truth
        except NoSignalError:
            pass
    if correct == len(traces):
        return []
    return [f"identity preset detected {correct}/{len(traces)} keys"]


class Sweeps:
    """Rounds of the ladder sweep then the glitch sweep, over every key.

    Each round has a master seed of its own, distinct per --seed.
    """

    name = "sweeps"
    setup_repeats = 9  # set-up is short; the median of several is steadier

    def __init__(self, seed: int, keys=KEYS, repeats: int = 1, rounds: int = 2):
        self.seed = seed
        self.keys = tuple(keys)
        self.repeats = repeats
        self.rounds = rounds
        self.refs = None

    def sizes(self) -> dict:
        return {
            "keys": len(self.keys), "repeats": self.repeats,
            "rounds_per_pass": self.rounds,
            "traces_per_pass": self.rounds * self._traces_per_round(),
        }

    def _traces_per_round(self) -> int:
        return (len(LADDER) + len(GLITCH_COUNTS)) * len(self.keys) * self.repeats

    def setup(self) -> list[str]:
        problems: list[str] = []
        self.refs, _ = _reference_sets(problems)
        _warm_up(self.refs, GLITCH_BASE, self.seed)
        return problems

    def ops(self) -> list[Op]:
        return [
            Op(self._traces_per_round(), functools.partial(self._round, self.seed * 100 + j))
            for j in range(self.rounds)
        ]

    def _round(self, master_seed: int) -> OpResult:
        start = time.perf_counter()
        ladder = sweep.run_preset_sweep(
            list(LADDER), self.refs, repeats=self.repeats, keys=self.keys,
            master_seed=master_seed,
        )
        glitch = sweep.run_glitch_sweep(
            list(GLITCH_COUNTS), self.refs, base_preset=GLITCH_BASE,
            repeats=self.repeats, keys=self.keys, master_seed=master_seed,
        )
        seconds = time.perf_counter() - start
        report_rows = ladder.rows + glitch.rows
        groups: dict[str, tuple[int, int]] = {}
        for row in report_rows:
            correct, attempted = groups.get(row.preset, (0, 0))
            groups[row.preset] = (correct + row.correct, attempted + row.repeats)
        problems = []
        expected = {g: len(self.keys) * self.repeats for g in GROUPS[:-1]}
        if {g: n for g, (_, n) in groups.items()} != expected:
            problems.append(f"sweep reports cover {groups}, expected {expected}")
        rows = tuple(tuple(row.as_dict().values()) for row in report_rows)
        return OpResult(seconds, rows, groups, problems)


class TraceReplay:
    """Closed loop, one caller: read one trace file, detect it, repeat."""

    name = "trace-replay"
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, keys=KEYS, repeats: int = 20):
        self.seed = seed
        self.workdir = Path(workdir)
        self.keys = tuple(keys)
        self.repeats = repeats
        self.refs = None
        self.files: list[tuple[Path, channel.EmanationTrace]] = []

    def sizes(self) -> dict:
        n = len(self.keys) * self.repeats
        return {"keys": len(self.keys), "repeats": self.repeats, "traces_per_pass": n}

    def setup(self) -> list[str]:
        problems: list[str] = []
        self.files = []  # let the last set-up's traces go before making new ones
        _, pipeline = _reference_sets(problems)
        ref_path = self.workdir / "refs.emrf"
        traceio.write_reference_set(pipeline, ref_path)
        self.refs = traceio.read_reference_set(ref_path)
        if self.refs.entries != pipeline.entries or self.refs.bit_rate != pipeline.bit_rate:
            problems.append("EMRF read back differs from what was written")
        traces = channel.synth_dataset(
            list(self.keys), channel.get_preset(REPLAY_PRESET),
            repeats=self.repeats, master_seed=self.seed,
        )
        for i, trace in enumerate(traces):
            path = self.workdir / f"{i:05d}.emtr"
            traceio.write_trace(trace, path)
            self.files.append((path, trace))
        try:
            detector.detect(traces[0], self.refs)
        except NoSignalError:
            pass
        return problems

    def ops(self) -> list[Op]:
        return [
            Op(1, functools.partial(self._replay, path, written))
            for path, written in self.files
        ]

    def _replay(self, path: Path, written) -> OpResult:
        start = time.perf_counter()
        trace = traceio.read_trace(path)
        try:
            result = detector.detect(trace, self.refs)
        except NoSignalError:
            result = None
        seconds = time.perf_counter() - start
        problems = [] if trace == written else [f"{path.name}: EMTR read back differs"]
        if result is None:
            outcome, correct = "no-signal", 0
        else:
            outcome = (result.key.index, result.score, result.margin, result.tie)
            correct = int(result.key == written.ground_truth)
        return OpResult(seconds, outcome, {REPLAY_PRESET: (correct, 1)}, problems)


def make(name: str, seed: int, workdir: Path, keys=KEYS, small: bool = False):
    """A workload at benchmark size, or at a tiny size for smoke tests."""
    if name == Sweeps.name:
        return Sweeps(seed, keys, rounds=1 if small else 2)
    if name == TraceReplay.name:
        return TraceReplay(seed, workdir, keys, repeats=1 if small else 20)
    raise ValueError(f"unknown workload {name!r}")
