"""Tests of the benchmark's own arithmetic and of its metric declarations.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children():
    # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6].
    recorded = [
        ["parent", 0.0, 10.0, -1, "round"],
        ["child", 1.0, 3.0, 0, "round"],
        ["child", 4.0, 8.0, 0, "round"],
        ["grandchild", 5.0, 6.0, 2, "round"],
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    table = spans.summarize(recorded)
    assert table["child"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert table["parent"]["self_s"] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    recorded = [
        ["parent", 0.0, 10.0, -1, "round"],
        ["a", 2.0, 6.0, 0, "round"],
        ["b", 4.0, 7.0, 0, "round"],
        ["c", 9.0, 12.0, 0, "round"],  # runs past the parent: clipped
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_low_decile_sets_the_fastest_tenth_aside():
    assert workloads.low_decile([5.0, 1.0, 4.0, 2.0, 3.0]) == 1.0
    values = [float(value) for value in range(20, 0, -1)]
    assert workloads.low_decile(values) == 3.0


def test_summarize_filters_by_phase():
    recorded = [["x", 0.0, 1.0, -1, "setup"], ["x", 2.0, 5.0, -1, "round"]]
    assert spans.summarize(recorded, "round")["x"]["total_s"] == 3.0
    assert spans.summarize(recorded, "setup")["x"]["calls"] == 1


def test_recorder_nests_and_only_records_while_enabled():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda value: value + 1)
    outer = recorder.wrap("outer", lambda value: inner(value) * 2)
    assert outer(1) == 4
    assert recorder.spans == []
    recorder.enabled = True
    assert outer(1) == 4
    names = [span[0] for span in recorder.spans]
    assert names == ["outer", "inner"]
    assert recorder.spans[1][3] == 0 and recorder.spans[0][3] == -1


def test_instrument_undo_restores_every_entry_point():
    from repro.core.stepper import AxisSplitStepper
    from repro.runner.spec import JobSpec
    advance, key = AxisSplitStepper.advance, vars(JobSpec)["key"]
    undo = spans.instrument(spans.SpanRecorder())
    assert AxisSplitStepper.advance is not advance
    undo()
    assert AxisSplitStepper.advance is advance
    assert vars(JobSpec)["key"] is key


def _declared(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_declared_metrics_match_benchmark_json():
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")
    assert set(workloads.LEG_SLOTS) < set(run.END_TO_END)
    assert {entry["name"] for entry in BENCHMARK["workloads"]} == \
        set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS.values():
        assert set(workload.LEGS) == set(workloads.LEG_SLOTS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_metrics_emits_exactly_the_declared_names(name):
    workload = workloads.WORKLOADS[name](seed=0)
    rounds = []
    for _ in range(2):
        current = workloads.Round()
        current.legs = {slot: [1.0] for slot in workloads.LEG_SLOTS}
        current.wall = 3.0
        rounds.append(current)
    recorder = spans.SpanRecorder()
    recorder.spans = [["core.solver.solve", 0.0, 2.0, -1, "round"],
                      ["core.moments", 0.5, 1.0, 0, "round"]]
    metrics = run.layer_metrics(workload, rounds, rounds, recorder)
    assert set(metrics) == set(_declared("per_layer"))
    assert metrics["core.solver.solve.self_s"] == pytest.approx(0.75)
    assert metrics["core.moments.calls"] == pytest.approx(0.5)
