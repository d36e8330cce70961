"""Tests of the benchmark's span arithmetic and tracer.

    python3 -m pytest -q bench/test_tracer.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
from tracer import Span, covered, layer_metrics, self_times  # noqa: E402


def span(name, parent, start, end, op=0, thread=1, **info):
    return Span(name, parent, op, thread, start, end, dict(info))


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1, 4), (3, 6), (9, 12)]) == 6.0
    assert covered(2.0, 3.0, [(0, 10)]) == 1.0
    assert covered(0.0, 1.0, [(2, 3)]) == 0.0


def test_self_times_on_a_synthetic_tree():
    spans = [
        span("op", None, 0, 10),
        span("cift.validate", 0, 1, 4),
        span("cift.validate", 0, 3, 6, thread=2),  # parallel sibling, overlaps
        span("intervals.mat_mul", 1, 2, 3),
        span("files.write_certificate", 0, 9, 12),  # runs past its parent's end
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        span("newton.newton_solve", None, 0, 1, op="setup", iterations=3),
        span("op", None, 10, 20),
        span("cift.validate", 1, 10, 18),
        span("operator.auto_inverse_bound", 2, 11, 17),
        span("operator.derivative_inverse_bound", 3, 11, 13),
        span("operator.derivative_inverse_bound", 3, 13, 17),
        span("intervals.mat_mul", 5, 14, 16, ops=8, bytes=192),
        span("op", None, 20, 30, op=1),
        span("cli.sweep", 7, 20, 30, op=1),
        span("cift.validate", 8, 20, 28, op=1, thread=2),
        span("cift.validate", 8, 21, 29, op=1, thread=3),
    ]
    m = layer_metrics(spans, n_ops=2)
    assert m["intervals.mat_mul.calls"] == 0.5
    assert m["intervals.mat_mul.self_s"] == 1.0
    assert m["intervals.mat_mul.ops_computed"] == 4.0
    assert m["intervals.mat_mul.bytes_computed"] == 96.0
    # busy time: 10 + 10 s of ops plus 7 s of the second pool thread
    assert m["intervals.mat_mul.share_frac"] == pytest.approx(2.0 / 27.0)
    assert m["operator.derivative_inverse_bound.calls"] == 1.0
    assert m["operator.auto_inverse_bound.useful_ratio"] == 0.5
    assert m["cift.validate.self_s"] == pytest.approx((2.0 + 8.0 + 8.0) / 2)
    assert m["cift.self_s"] == m["cift.validate.self_s"]
    assert m["cli.sweep.pool_workers"] == 2
    assert m["cli.sweep.parallel_ratio"] == pytest.approx(1.6)
    assert m["cli.self_s"] == pytest.approx(1.0 / 2)
    assert m["trace.coverage_frac"] == pytest.approx(0.9)
    assert m["trace.op_s"] == 10.0
    assert m["setup.newton.iterations"] == 3
    assert m["setup.newton.newton_solve.wall_s"] == 1.0
    assert m["newton.newton_solve.calls"] == 0.0


def test_tracer_catches_from_imports_and_restores():
    import numpy as np

    import okvalid.operator as operator
    import okvalid.series as series

    original = series.multiply
    t = tracer.Tracer()
    t.install()
    try:
        assert operator.multiply is not original  # bound by "from .series import"
        root = t.begin_op(0)
        u = series.CosineSeries.from_point(np.array([0.0, 0.5, 0.25]), zero_mean=True)
        operator.poly_eval_series((0.0, 1.0, 0.0, -1.0), u)
        t.end_op(root)
    finally:
        t.uninstall()
    assert series.multiply is original and operator.multiply is original
    names = [s.name for s in t.spans]
    assert names[:2] == ["op", "operator.poly_eval_series"]
    assert names.count("series.multiply") == 3
    assert all(s.parent == 1 for s in t.spans if s.name == "series.multiply")


def test_benchmark_json_names_the_reported_metrics():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]


def test_span_cost_is_timed_without_keeping_spans():
    t = tracer.Tracer()
    assert t.span_cost(calls=1000) >= 0.0
    assert t.spans == []
