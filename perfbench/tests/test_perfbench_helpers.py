"""Unit tests for the benchmark's measurement helpers.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import freshness, percentile, samples_beyond, stationarity_problems  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.95) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


def test_samples_beyond_counts_the_supporting_tail():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    assert samples_beyond(200, 0.95) == 10


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: union of a and b is 1..6
        ("c", 2.0, 3.0, 1, 0),  # grandchild: counts against a only
        None,  # a span that never ended
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == 0.0


def test_self_time_clips_children_to_the_parent():
    spans = [("root", 0.0, 2.0, -1, 0), ("late", 1.5, 3.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_summarize_counts_nested_same_name_spans_once():
    spans = [
        ("outer", 0.0, 4.0, -1, 0),
        ("outer", 1.0, 2.0, 0, 0),
        ("leaf", 2.0, 3.0, 0, 0),
    ]
    summary = summarize(spans)
    assert summary["outer"]["calls"] == 2
    assert summary["outer"]["total_s"] == pytest.approx(4.0)
    assert summary["outer"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert summary["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_tracer_records_parents_roots_and_restores_targets():
    import types

    module = types.ModuleType("traced_fixture")
    sys.modules["traced_fixture"] = module

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.install([("traced_fixture", "inner", "in"), ("traced_fixture", "outer", "out", str)])
    try:
        assert module.outer(1) == 4
        assert module.outer(2) == 6
    finally:
        tracer.uninstall()
        del sys.modules["traced_fixture"]
    assert module.inner is inner and module.outer is outer
    spans = tracer.finished()
    assert [span[0] for span in spans] == ["out", "in", "out", "in"]
    assert [span[3] for span in spans] == [-1, 0, -1, 2]
    assert [span[4] for span in spans] == [0, 0, 2, 2]
    assert tracer.observations["out"] == ["4", "6"]


def test_stationarity_flags_only_drift_past_the_limit():
    start = {"nodes": 100, "edges": 400}
    assert stationarity_problems(start, {"nodes": 100, "edges": 410}) == []
    problems = stationarity_problems(start, {"nodes": 100, "edges": 300})
    assert len(problems) == 1 and "|edges|" in problems[0]
    assert stationarity_problems(start, {"nodes": 90, "edges": 400}, limit=0.2) == []


def test_freshness_uses_the_first_poll_covering_each_position():
    payload_times = [0.0, 1.0, 2.0]
    positions = [2, 4, 6]
    polls = [(0.5, 0), (1.5, 4), (2.5, 5)]  # never reaches 6
    assert freshness(payload_times, positions, polls) == [1.5, 0.5]


def test_benchmark_json_lists_every_per_layer_metric_in_order():
    import json

    import layers

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    declared = [(metric["name"], metric["unit"]) for metric in spec["per_layer"]]
    assert declared == list(layers.PER_LAYER)
    assert {metric["name"] for metric in spec["end_to_end"]} == {
        "setup_s", "freshness_p50_ms", "freshness_p95_ms", "updates_per_s", "peak_rss_mb"
    }


def test_layer_metrics_reports_every_metric_without_a_service():
    import layers

    metrics = layers.layer_metrics({}, [])
    assert [name for name in metrics] == [name for name, _ in layers.PER_LAYER]
    assert all(value == 0.0 for value, _ in metrics.values())
