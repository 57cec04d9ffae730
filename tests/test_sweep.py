import hashlib
import tracemalloc

import numpy as np
import pytest

from emanakey import channel, sweep
from emanakey.detector import detect_batch
from emanakey.errors import NoSignalError
from emanakey.keys import KEYS
from emanakey.traceio import read_report, write_report

KEYS3 = KEYS[:3]
KEYS5 = KEYS[:5]


def test_glitch_sweep_synthesizes_its_dataset_once(refs, monkeypatch):
    # Every count adds its bursts to one base trace per (key, repeat): one
    # noise stream per base trace, not one per count.
    streams = []
    stream = channel._stream

    def counting(*args):
        streams.append(args)
        return stream(*args)

    monkeypatch.setattr(channel, "_stream", counting)
    report = sweep.run_glitch_sweep([0, 1, 2], refs, repeats=1, keys=KEYS3, master_seed=9)
    assert streams == [(9, key, 0) for key in KEYS3]
    per_count = [
        row
        for count in (0, 1, 2)
        for row in sweep.run_glitch_sweep(
            [count], refs, repeats=1, keys=KEYS3, master_seed=9
        ).rows
    ]
    assert report.rows == per_count


LADDER = ["open-space-0.5m", "open-space-2.5m", "open-space-3m", "open-space-3.8m"]


def test_ladder_sweep_draws_each_interferer_once_per_trace(refs, monkeypatch):
    # The rungs share seed, noise, interferers and glitch rate, and differ
    # only in gain: one draw per (key, repeat) serves all four.
    calls = []
    interference = channel._interference

    def counting(*args):
        calls.append(args[0])
        return interference(*args)

    monkeypatch.setattr(channel, "_interference", counting)
    sweep.run_preset_sweep(LADDER, refs, repeats=2, keys=KEYS3, master_seed=4)
    per_trace = len(channel.get_preset(LADDER[0]).interferers)
    assert len(calls) == per_trace * len(KEYS3) * 2


@pytest.mark.parametrize(
    "run, datasets",
    [
        (lambda refs: sweep.run_preset_sweep(
            LADDER, refs, repeats=1, keys=KEYS3, master_seed=3), len(LADDER)),
        (lambda refs: sweep.run_noise_sweep(
            [2e-9, 2e-8], refs, repeats=1, keys=KEYS3, master_seed=3), 2),
        (lambda refs: sweep.run_glitch_sweep(
            [0, 4, 8], refs, repeats=1, keys=KEYS3, master_seed=3), 3),
    ],
)
def test_each_sweep_detects_every_dataset_in_one_call(refs, monkeypatch, run, datasets):
    calls = []
    batch = sweep.detect_batch

    def counting(traces, *args):
        calls.append(len(traces))
        return batch(traces, *args)

    monkeypatch.setattr(sweep, "detect_batch", counting)
    report = run(refs)
    assert calls == [datasets * len(KEYS3)]
    assert len(report.rows) == datasets * len(KEYS3)


def test_a_preset_listed_twice_gets_two_row_groups(refs):
    twice = sweep.run_preset_sweep(
        ["open-space-3m", "open-space-3m"], refs, repeats=2, keys=KEYS3, master_seed=7
    )
    once = sweep.run_preset_sweep(
        ["open-space-3m"], refs, repeats=2, keys=KEYS3, master_seed=7
    )
    assert len(once.rows) == len(KEYS3)
    assert twice.rows == once.rows + once.rows


@pytest.mark.parametrize("repeats", [9, 10])
def test_row_means_are_numpy_means_of_each_keys_list(refs, repeats):
    # At 9 and 10 values np.mean's pairwise sum can differ from a left to
    # right one. A key listed twice gets twice the traces, so rows hold
    # unequal counts.
    keys = [*KEYS5, KEYS5[1]]
    preset = channel.get_preset("open-space-3.8m")
    report = sweep.run_preset_sweep(
        ["open-space-3.8m"], refs, repeats=repeats, keys=keys, master_seed=6
    )
    traces = channel.synth_dataset(keys, preset, repeats=repeats, master_seed=6)
    outcomes = {}
    for trace, result in zip(traces, detect_batch(traces, refs)):
        record = (
            (False, 0.0, 0.0) if isinstance(result, NoSignalError)
            else (result.key == trace.ground_truth, result.score, result.margin)
        )
        outcomes.setdefault(trace.ground_truth, []).append(record)
    assert [row.key for row in report.rows] == [key.label for key in KEYS5]
    sequential_differs = False
    for row, key in zip(report.rows, KEYS5):
        ok, scores, margins = zip(*outcomes[key])
        assert row.repeats == len(scores) == repeats * (2 if key == KEYS5[1] else 1)
        assert row.correct == sum(ok) and type(row.correct) is int
        assert row.mean_score == np.mean(scores) and type(row.mean_score) is float
        assert row.mean_margin == np.mean(margins)
        sequential_differs |= sum(margins) / len(margins) != np.mean(margins)
        sequential_differs |= sum(scores) / len(scores) != np.mean(scores)
    assert sequential_differs


def test_rows_compare_keys_not_reference_positions(refs):
    # References for the odd keys alone: the winner's position among them
    # is not its key index.
    from emanakey.edges import ReferenceSet

    odd = ReferenceSet(entries={k: s for k, s in refs.entries.items() if k.index % 2})
    keys = [KEYS[1], KEYS[3], KEYS[9], KEYS[15]]
    report = sweep.run_preset_sweep(
        ["open-space-3.8m", "office-12m"], odd, repeats=3, keys=keys, master_seed=8
    )
    datasets = channel.synth_datasets(
        keys, [channel.get_preset("open-space-3.8m"), channel.get_preset("office-12m")],
        repeats=3, master_seed=8,
    )
    traces = [t for dataset in datasets for t in dataset]
    correct = {}
    for trace, result in zip(traces, detect_batch(traces, odd)):
        ok = not isinstance(result, NoSignalError) and result.key == trace.ground_truth
        label = (trace.preset.name, trace.ground_truth.label)
        correct[label] = correct.get(label, 0) + ok
    assert [(row.preset, row.key, row.correct) for row in report.rows] == [
        (name, k.label, correct[name, k.label]) for name in ("open-space-3.8m", "office-12m")
        for k in keys
    ]
    assert sum(correct.values()) > len(traces) // 2


@pytest.mark.parametrize(
    "run",
    [
        lambda refs: sweep.run_preset_sweep(["open-space-3m"], refs, repeats=1, keys=KEYS3),
        lambda refs: sweep.run_noise_sweep([4e-9], refs, repeats=1, keys=KEYS3),
        lambda refs: sweep.run_glitch_sweep([0], refs, repeats=1, keys=KEYS3),
    ],
    ids=["preset", "noise", "glitch"],
)
def test_sweep_report_config_records_sample_rate(refs, run):
    assert run(refs).config["sample_rate"] == 250e6


# SHA-256 of write_report's CSV and JSON bytes, recorded before the three
# sweeps shared one core. They pin the config keys and their order, the row
# order and every number in the rows.
@pytest.mark.parametrize(
    "run, csv_digest, json_digest",
    [
        (
            lambda refs: sweep.run_preset_sweep(
                ["open-space-3m", "open-space-3.8m", "office-12m"], refs,
                repeats=2, keys=KEYS5, master_seed=5,
            ),
            "8672ec6d0adcad5c5ea583623cd5d6be869921da6d445686b4de9f4a757bba34",
            "1bbd23b4295bae22befd0917ca6314d231d70259eee0bbdab34c1a0c45091948",
        ),
        (
            lambda refs: sweep.run_preset_sweep(
                ["open-space-3.8m"], refs, repeats=2, keys=KEYS5
            ),
            "cb98d4d0f99d5f3663ce570dc5e0cdbb9853ac48d5674eb1cfbb4c7c11e77860",
            "02ec2ec08ffcb9eb13a77d4e5c645225aca6d79bb255b5fb9b396fbf0ae416a5",
        ),
        (
            lambda refs: sweep.run_noise_sweep(
                [2e-9, 8e-9], refs, repeats=2, keys=KEYS5
            ),
            "ff9666f8338e9de9c95a50247e491bfe1d1fc86dcb93e571daea696c242b0b90",
            "72a316b18c2db911e3c39a4b82b758072bcbd334286aec01a5aec226b7cb02b9",
        ),
        (
            lambda refs: sweep.run_noise_sweep(
                [4e-9], refs, gain_db=-85, repeats=2, keys=KEYS5
            ),
            "52e83bd43b9ebe3480fe7c8c20ed323438f26f5771fb754a0bdb0add4bfcd7d7",
            "6ad85407e3fdf697b9bf7a50f38df1f11cba58dfb387903ef625fe12551ad69b",
        ),
        (
            lambda refs: sweep.run_glitch_sweep(
                [0, 1, 2, 8], refs, repeats=2, keys=KEYS5
            ),
            "26875c5b74d966f1aededdc136a9f919d066a4fe12b56d30fbfe630bc4f11fd6",
            "f5bac722b478966e80c6795a1c4389a556a7b05fdc1051d69afaaaef6a03fa63",
        ),
    ],
    ids=["preset-seed5", "preset-no-seed", "noise", "noise-gain", "glitch"],
)
def test_sweep_report_bytes_are_pinned(refs, tmp_path, run, csv_digest, json_digest):
    report = run(refs)
    for fmt, digest in (("csv", csv_digest), ("json", json_digest)):
        path = tmp_path / f"report.{fmt}"
        write_report(report, path, fmt=fmt)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, fmt
        assert read_report(path).rows == report.rows


# --- sweeps detect in blocks -------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [
        lambda refs: sweep.run_preset_sweep(LADDER, refs, repeats=2, keys=KEYS5, master_seed=5),
        lambda refs: sweep.run_noise_sweep(
            [2e-9, 8e-9, 2e-8], refs, repeats=2, keys=KEYS5, master_seed=5),
        lambda refs: sweep.run_glitch_sweep(
            [0, 2, 8], refs, repeats=2, keys=KEYS5, master_seed=5),
        lambda refs: sweep.run_preset_sweep(
            ["open-space-3m", "open-space-3m"], refs, repeats=2, keys=KEYS5, master_seed=5),
    ],
    ids=["ladder", "noise", "glitch", "preset-twice"],
)
def test_report_bytes_do_not_depend_on_the_block_size(refs, tmp_path, monkeypatch, run):
    def report_bytes():
        path = tmp_path / "report.csv"
        report = run(refs)
        write_report(report, path, fmt="csv")
        return path.read_bytes(), sum(row.repeats for row in report.rows)

    default, total = report_bytes()
    batch = sweep.detect_batch
    for block in (1, 7, 64):
        calls = []

        def counting(traces, *args):
            calls.append(len(traces))
            return batch(traces, *args)

        monkeypatch.setattr(sweep, "_BLOCK_TRACES", block)
        monkeypatch.setattr(sweep, "detect_batch", counting)
        assert report_bytes() == (default, total), block
        # Full blocks, then one call for both lengths' leftovers.
        assert all(size == block for size in calls[:-1]), block
        assert calls[-1] < block * 2 and sum(calls) == total, block
        assert len(calls) > 1 or block == 64


def test_sweep_memory_stays_flat_as_repeats_grow(refs, monkeypatch):
    # 28 more repeats of 10 traces hold 3.4 MB of float32 samples alone;
    # detected a block at a time, the sweep's traced peak may grow by no
    # more than 0.5 MB.
    monkeypatch.setattr(sweep, "_BLOCK_TRACES", 16)

    def peak(repeats):
        tracemalloc.start()
        try:
            sweep.run_noise_sweep(
                [2e-9, 2e-8], refs, repeats=repeats, keys=KEYS5, master_seed=3
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # the chunk workers' kept buffers are made here
    few, many = peak(4), peak(32)
    assert many < few + 500_000, (few, many)
