import hashlib

import pytest

from emanakey import sweep
from emanakey.keys import KEYS
from emanakey.traceio import read_report, write_report

KEYS3 = KEYS[:3]
KEYS5 = KEYS[:5]


def test_glitch_sweep_synthesizes_its_dataset_once(refs, monkeypatch):
    calls = []
    synth = sweep.synth_dataset

    def counting(*args, **kwargs):
        calls.append(args)
        return synth(*args, **kwargs)

    monkeypatch.setattr(sweep, "synth_dataset", counting)
    report = sweep.run_glitch_sweep([0, 1, 2], refs, repeats=1, keys=KEYS3, master_seed=9)
    assert len(calls) == 1
    per_count = [
        row
        for count in (0, 1, 2)
        for row in sweep.run_glitch_sweep(
            [count], refs, repeats=1, keys=KEYS3, master_seed=9
        ).rows
    ]
    assert report.rows == per_count


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
