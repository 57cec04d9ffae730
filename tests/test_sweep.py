import pytest

from emanakey import sweep
from emanakey.keys import KEYS

KEYS3 = KEYS[:3]


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
