"""Tests of the benchmark's own code: run with `python3 -m pytest perfbench`."""

import sys
from pathlib import Path

import pytest

from inputs import GENERATORS, make_inputs, op_count
from run import summarize, tail
from tracing import LAYER_UNITS, Span, Tracer, self_times

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_is_deterministic_in_its_seed(workload):
    first = make_inputs(workload, 7, 20)
    assert first == make_inputs(workload, 7, 20)
    assert first != make_inputs(workload, 8, 20)
    assert len(first) >= 1


def test_batch_size_follows_seconds_not_seed():
    for workload in GENERATORS:
        assert op_count(workload, 20) >= op_count(workload, 5) >= 1
        assert len(make_inputs(workload, 1, 20)) == len(make_inputs(workload, 2, 20))


def test_solver_range_keeps_both_known_defect_classes():
    for seed in range(5):
        ops = make_inputs("solver-range", seed, 20)
        balanced = [op["params"] for op in ops if op["kind"] == "balanced"]
        assert balanced and all(p[4] == 0.0 and p[1] == p[2] for p in balanced)
        assert max(op["params"][0] for op in ops if op["kind"] == "general") >= 500
        assert all(1 <= op["params"][0] <= 1000 for op in ops)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),   # overlaps a: children cover [1, 6]
        Span("c", 2.0, 3.0, 1, 0),   # grandchild, inside a
        Span("d", 9.0, 12.0, 0, 0),  # runs past the root: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("x", 2.5, 4.0, None, None)]) == [1.5]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail(list(range(19))) is None
    t = tail([float(i) for i in range(1, 49)])
    assert (t["percentile"], t["beyond"]) == (79, 10)
    assert t["value"] == 38.0


def test_wall_ref_keeps_each_operations_fastest_relative_pass():
    records = [
        {"seconds": [2.0, 1.0], "ref": [0.5, 0.1], "failure": None},  # 4 or 10
        {"seconds": [1.0, 1.5], "ref": [0.2, 0.5], "failure": "x.known"},  # 5 or 3
    ]
    s = summarize(records, frozenset({"x.known"}))
    assert s["wall_ref"] == pytest.approx(7.0)
    assert s["wall_s"] == pytest.approx(2.0)  # fastest passes in seconds: 1 + 1
    assert (s["attempted"], s["failed"], s["correct"]) == (2, 1, True)
    assert summarize(records, frozenset())["correct"] is False


def test_tracer_wraps_callers_bindings_and_counts_results():
    sys.path.insert(0, str(SRC))
    import lobfluid.experiments as experiments
    import lobfluid.fixed_point as fixed_point
    from lobfluid.model import ModelParams

    tracer = Tracer()
    tracer.install()
    assert hasattr(experiments.simulate, "__wrapped__")
    assert experiments.simulate is sys.modules["lobfluid.simulate"].simulate
    fixed_point.solve_recursive(ModelParams(2, 1.0, 1.0, 1.0, 1.0, 1.0))
    assert tracer.spans == []  # nothing is recorded outside an operation
    tracer.begin(0)
    fp = fixed_point.solve_recursive(ModelParams(2, 1.0, 1.0, 1.0, 1.0, 1.0))
    tracer.end()
    names = [s.name for s in tracer.spans]
    assert names == ["op", "fixed_point.solve_recursive"]
    assert tracer.spans[1].parent == 0
    layers = tracer.layer_metrics()
    assert layers["fixed_point.solve_recursive.calls"] == 1
    assert layers["fixed_point.solve_recursive.iterations"] == fp.iterations
    assert set(layers) == {n for n in LAYER_UNITS
                           if not n.startswith(("setup.", "trace."))}
