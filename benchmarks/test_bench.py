"""Tests of the benchmark's metric arithmetic and of its outside-in tracing."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import run
from stats import Span, per_sample_intervals, percentile, self_times, tail_percentile


def test_intervals_from_a_synthetic_trace():
    samples = [256, 512, 768, 1000]
    walls = [0.010, 0.01256, 0.01768, 0.01999]
    us = per_sample_intervals(samples, walls)
    assert us == pytest.approx([10.0, 20.0, 0.00231e6 / 232])
    assert percentile(us, 50) == pytest.approx(10.0)


def test_intervals_refuse_a_trace_that_does_not_advance():
    with pytest.raises(ValueError):
        per_sample_intervals([256, 256], [0.0, 1.0])


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 12))          # 1..11
    assert percentile(values, 50) == 6
    assert percentile(values, 90) == 10
    assert percentile([0.0, 1.0], 25) == 0.25


def test_tail_percentile_needs_ten_values_beyond_it():
    assert tail_percentile(list(range(101)), 90) == 90
    with pytest.raises(ValueError):
        tail_percentile(list(range(50)), 90)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, 0, None, "solve", 0.0, 10.0),
        Span(0, 1, 0, "draw", 1.0, 3.0),
        Span(0, 2, 0, "prox", 2.0, 4.0),      # overlaps the draw
        Span(0, 3, 0, "eval", 9.0, 12.0),     # runs past the parent's end
        Span(0, 4, 1, "inner", 1.5, 2.5),     # a grandchild: not the root's child
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_metrics_split_a_solve_into_self_and_child_time():
    spans = [
        Span(0, 0, None, "core.solve", 0.0, 10.0),
        Span(0, 1, 0, "smoothing.draw", 1.0, 2.0),
        Span(0, 2, 0, "prox.evaluate", 2.0, 4.0),
        Span(0, 3, 0, "core.eval", 5.0, 6.0),
        Span(5, 5, None, "baselines.solve", 20.0, 24.0),
        Span(5, 6, 5, "baselines.eval", 21.0, 22.0),
    ]
    m = run.layer_metrics(spans, Counter({"smoothing.draw.samples": 1}), steps=7)
    assert m["core.step.s"] == pytest.approx(6.0)
    assert m["core.step.calls"] == 7
    assert m["core.eval.share"] == pytest.approx(0.1)
    assert m["smoothing.draw.calls"] == 1
    assert m["baselines.step.s"] == pytest.approx(3.0)
    assert m["baselines.eval.share"] == pytest.approx(0.25)
    assert m["problems.reference_solution.s"] == 0.0
    assert set(m) | {"trace.overhead"} == set(run.PER_LAYER)


def test_tracer_records_parents_and_run_ids():
    from tracing import Tracer

    tr = Tracer()
    inner = tr.wrap("inner", lambda v: v + 1)
    assert tr.call("outer", lambda v: inner(inner(v)), 1) == 3
    tr.call("second", int, "4")
    by_name = {}
    for sp in tr.span_records():
        by_name.setdefault(sp.name, []).append(sp)
    (outer,), (second,) = by_name["outer"], by_name["second"]
    assert [s.parent_id for s in by_name["inner"]] == [outer.span_id] * 2
    assert {s.run_id for s in by_name["inner"]} == {outer.span_id}
    assert outer.parent_id is None and second.run_id == second.span_id


def test_traced_solve_is_bit_identical():
    from sasc import Case, SascConfig, make_min_norm_hyperplane_problem, run_sasc
    from tracing import Tracer

    problem, _ = make_min_norm_hyperplane_problem(dim=3)
    for minibatch in (1, 4):
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=4, epochs=5,
                         case=Case.RESTRICTED_STRONGLY_CONVEX,
                         minibatch=minibatch, checkpoint_every=8, seed=3)
        tr = Tracer()
        x, trace = run_sasc(problem, cfg)
        xt, trace_t = run_sasc(tr.problem(problem, "core.eval"), cfg)
        assert x.tobytes() == xt.tobytes()
        assert np.array_equal(trace.column("feasibility"),
                              trace_t.column("feasibility"))
        assert tr.counts["smoothing.draw.samples"] == trace.records[-1].samples


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json")
                      .read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {k: u for k, u in run.END_TO_END.items()
                   if k not in run.UNBOUNDED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
