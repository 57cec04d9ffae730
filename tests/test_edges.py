import numpy as np
import pytest

from emanakey import (
    KEYS,
    EmptySeriesError,
    SampleRateError,
    build_keystroke_transaction,
    build_reference_set,
    edges_analytic,
    key_by_label,
    min_pairwise_distance,
    simulate_probed_waveform,
    wired_pipeline_edges,
)
from emanakey.edges import EdgeSeries, edge_signs, pairwise_distance
from emanakey.frames import PacketKind

from oracle import edge_signs_oracle


def test_sync_slot_pattern():
    # the data packet opens with SYNC: seven transitions then a hold
    frame = build_keystroke_transaction(key_by_label("a"))
    series = edges_analytic(frame)
    assert list(series.slots[:8]) == [1, 1, 1, 1, 1, 1, 1, 0]


def test_all_ones_stretch_has_no_edges():
    # inside the payload, a zero byte toggles every slot and 0xFF would
    # hold; the PID of DATA0 (11000011 on the wire) holds twice mid-byte
    frame = build_keystroke_transaction(key_by_label("a"))
    series = edges_analytic(frame)
    # slots 8..15 carry the PID bits 1,1,0,0,0,0,1,1 -> edge pattern inverts
    assert list(series.slots[8:16]) == [0, 0, 1, 1, 1, 1, 0, 0]


def test_golden_edge_count_for_a():
    # frozen from the analytic oracle at first build
    frame = build_keystroke_transaction(key_by_label("a"))
    assert edges_analytic(frame).ones == 96


def test_edge_counts_in_band(refs):
    counts = [refs[k].ones for k in refs.keys_in_order()]
    assert min(counts) >= 90
    assert max(counts) <= 105


def test_series_origin_at_first_sync_transition():
    frame = build_keystroke_transaction(key_by_label("a"))
    series = edges_analytic(frame)
    assert series.origin == 0.0
    assert series.slots[0] == 1


def test_probed_waveform_levels():
    frame = build_keystroke_transaction(key_by_label("a"))
    wave = simulate_probed_waveform(frame, 250e6)
    assert wave.max() == pytest.approx(3.3, abs=1e-9)
    assert wave.min() == pytest.approx(-3.3, abs=1e-9)
    # idle padding holds the J level
    assert wave[0] == pytest.approx(3.3)
    assert wave[-1] == pytest.approx(3.3)


def test_probed_waveform_rejects_low_rate():
    frame = build_keystroke_transaction(key_by_label("a"))
    with pytest.raises(SampleRateError):
        simulate_probed_waveform(frame, 100e6)


def test_probed_transition_count_matches_analytic():
    frame = build_keystroke_transaction(key_by_label("a"))
    wave = simulate_probed_waveform(frame, 250e6)
    series = wired_pipeline_edges(wave, 250e6, frame.bit_time)
    assert series.ones == edges_analytic(frame).ones


def test_pipeline_equals_analytic_for_all_keys():
    for key in KEYS:
        frame = build_keystroke_transaction(key)
        analytic = edges_analytic(frame)
        wave = simulate_probed_waveform(frame, 250e6)
        series = wired_pipeline_edges(
            wave, 250e6, frame.bit_time, expected_slots=len(analytic)
        )
        assert np.array_equal(series.slots, analytic.slots), key.label


def test_pipeline_scale_free():
    frame = build_keystroke_transaction(key_by_label("k"))
    wave = simulate_probed_waveform(frame, 250e6)
    a = wired_pipeline_edges(wave, 250e6, frame.bit_time)
    b = wired_pipeline_edges(0.5 * wave, 250e6, frame.bit_time)
    assert np.array_equal(a.slots, b.slots)


def test_pipeline_empty_input_raises():
    with pytest.raises(EmptySeriesError):
        wired_pipeline_edges(np.zeros(5000), 250e6, 1 / 12e6)


def test_reference_set_build(refs):
    assert len(refs) == 70
    widths = {refs[k].bit_width for k in refs.keys_in_order()}
    assert len(widths) == 1
    assert refs.method == "analytic"


def test_reference_methods_agree(refs):
    pipeline = build_reference_set("pipeline")
    for key in refs.keys_in_order():
        assert np.array_equal(refs[key].slots, pipeline[key].slots), key.label
    assert pipeline.method == "pipeline"


def test_reference_determinism(refs):
    again = build_reference_set("analytic")
    for key in refs.keys_in_order():
        assert refs[key] == again[key]


def test_references_pairwise_distinct(refs):
    d_min, ka, kb = min_pairwise_distance(refs)
    assert d_min > 0
    # frozen observation: the tightest pair sits at distance 4
    assert d_min == 4
    assert {ka.label, kb.label} == {"0", "6"}


def test_min_distance_stable_under_shifts(refs):
    d0, *_ = min_pairwise_distance(refs, max_shift=0)
    d2, *_ = min_pairwise_distance(refs, max_shift=2)
    assert d2 <= d0
    assert d2 >= 3  # single-slot tolerance guaranteed


def test_pairwise_distance_shift_semantics():
    a = EdgeSeries(slots=np.array([1, 0, 1, 0], dtype=np.uint8), bit_width=1.0)
    b = EdgeSeries(slots=np.array([0, 1, 0, 1], dtype=np.uint8), bit_width=1.0)
    assert pairwise_distance(a, b, 0) == 4
    # shifting b left by one aligns the patterns exactly
    assert pairwise_distance(a, b, -1) == 0


def test_series_validation():
    with pytest.raises(ValueError):
        EdgeSeries(slots=np.array([0, 2, 1], dtype=np.uint8), bit_width=1.0)


@pytest.mark.parametrize("window", ["capture", "full"])
@pytest.mark.parametrize("toggle", [PacketKind.DATA0, PacketKind.DATA1])
def test_edge_signs_and_series_match_state_walk(window, toggle):
    for key in KEYS:
        frame = build_keystroke_transaction(key, data_toggle=toggle, include_sof=True)
        want = edge_signs_oracle(frame, window)
        got = edge_signs(frame, window)
        assert got.dtype == np.int8 and np.array_equal(got, want), key.label
        assert np.array_equal(edges_analytic(frame, window).slots, want != 0)


def test_pipeline_lowpass_designed_once(monkeypatch):
    from emanakey import edges

    calls = []
    firwin = edges.sp_signal.firwin

    def counting_firwin(*args, **kwargs):
        calls.append(args)
        return firwin(*args, **kwargs)

    edges._wired_lowpass.cache_clear()
    monkeypatch.setattr(edges.sp_signal, "firwin", counting_firwin)
    first = build_reference_set("pipeline")
    second = build_reference_set("pipeline")
    edges._wired_lowpass.cache_clear()
    assert len(calls) == 1
    assert first.entries == second.entries


def test_reference_scoring_arrays_are_cached_and_read_only(refs):
    keys = refs.keys_in_order()
    assert refs.slot_matrix is refs.slot_matrix
    arrays = (refs.lengths, refs.slot_matrix, refs.edge_counts, refs.mismatch_weights)
    assert not any(array.flags.writeable for array in arrays)
    assert refs.slot_matrix.shape == (len(keys), refs.max_slots())
    for row, key in enumerate(keys):
        series = refs[key]
        assert refs.lengths[row] == len(series)
        assert np.array_equal(refs.slot_matrix[row, : len(series)], series.slots)
        assert not refs.slot_matrix[row, len(series) :].any()
        assert refs.edge_counts[row] == series.ones
    # A 0/1 row times the weights plus the edge counts is the mismatch count
    # within each reference's length.
    rng = np.random.default_rng(4)
    row = rng.integers(0, 2, refs.max_slots())
    mismatches = row @ refs.mismatch_weights + refs.edge_counts
    expected = [
        np.count_nonzero(row[: len(refs[k])] != refs[k].slots) for k in keys
    ]
    assert np.array_equal(mismatches, expected)
