"""Smoke test of the benchmark: a tiny run of each workload passes its checks."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from emanakey.keys import KEYS  # noqa: E402
from perfbench import run, spans, workloads  # noqa: E402

SPEC = run.spec()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_checks(name, trace, tmp_path):
    workload = workloads.make(name, seed=3, workdir=tmp_path, keys=KEYS[:3], small=True)
    result = run.measure(workload, seconds=0.0, trace=trace)
    assert result["extra"]["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_removing_the_wrappers_restores_every_attribute():
    before = spans.originals()
    with spans.installed(spans.Tracer()):
        during = spans.originals()
        assert all(during[k] is not fn for k, fn in before.items())
    assert spans.originals() == before
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError
    assert spans.originals() == before


def test_self_time_subtracts_the_union_of_children():
    def span(sid, name, start, end, parent, tid=1):
        return spans.Span(sid, name, start, end, parent, tid, "loop", {})

    recorded = [
        span(1, "sweep", 0.0, 10.0, None),
        span(2, "detector.detect", 1.0, 3.0, 1, tid=2),
        span(3, "detector.detect", 2.0, 5.0, 1, tid=3),
        span(4, "detector.normalize", 2.5, 3.0, 3, tid=3),
    ]
    metrics = spans.layer_metrics(recorded, passes=2)
    assert metrics["sweep.self_ms"] == pytest.approx(1e3 * (10 - 4) / 2)
    assert metrics["detector.detect.self_ms"] == pytest.approx(1e3 * (2 + 2.5) / 2)
    assert metrics["detector.detect.calls"] == 1
    assert metrics["sweep.workers"] == 2
    assert metrics["sweep.detect_concurrency"] == pytest.approx(5 / 4)
