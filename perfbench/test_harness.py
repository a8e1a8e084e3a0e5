"""Tests of the benchmark's own arithmetic: the tail rule, self time of
nested spans, and failure counting.

    python3 -m pytest perfbench/test_harness.py
"""

import math

import pytest

import stats
from stats import Span


def test_tail_is_highest_rank_with_ten_beyond():
    xs = list(range(1, 101))  # 1..100
    t = stats.tail(xs)
    assert t == stats.Tail(90, 90.0, 100)
    assert sum(x > t.value for x in xs) == 10


def test_tail_ignores_input_order_and_counts_ties_by_rank():
    t = stats.tail([5.0] * 15 + [1.0] * 5)
    assert t.percentile == pytest.approx(50.0)
    assert t.value == 5.0


def test_tail_is_none_below_the_median():
    assert stats.tail(list(range(10))) is None
    assert stats.tail(list(range(19))) is None  # rank 9 of 19 is under p50
    assert stats.tail(list(range(20))) == stats.Tail(9, 50.0, 20)


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.5, 1),
        Span("b", 5.0, 6.0, 0),
    ]
    assert stats.self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 4.0, -1), Span("c1", 1.0, 3.0, 0),
             Span("c2", 2.0, 3.5, 0), Span("c3", 3.9, 5.0, 0)]
    # children cover [1, 3.5] and [3.9, 4] of the parent
    assert stats.self_times(spans)[0] == pytest.approx(4.0 - 2.5 - 0.1)


def test_tracer_self_time_matches_layer_totals():
    import tracing

    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner() or inner(), "outer")
    outer()
    totals = tracer.layer_totals()
    # outer spans ticks 0..5, each inner call one tick
    assert totals["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert totals["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_sep_violation():
    assert stats.sep_violation(0.25, 0.75) is None
    assert stats.sep_violation(0.0, 0.75) is None
    assert "outside" in stats.sep_violation(90.13, 0.75)
    assert "outside" in stats.sep_violation(-1e-3, 0.75)
    assert "non-finite" in stats.sep_violation(math.nan, 0.75)
    assert "non-finite" in stats.sep_violation(math.inf, 0.75)


def test_failed_frac_counts_an_injected_out_of_range_value():
    seps = [0.2, 0.1, 90.13, 0.01]
    tally = stats.Tally()
    for i, v in enumerate(seps):
        tally.attempted += 1
        if why := stats.sep_violation(v, 0.75):
            tally.fail(i, why)
    assert (tally.failed, tally.attempted) == (1, 4)
    assert tally.failed_frac == 0.25
    assert tally.correct  # the program made the failure visible itself


def test_an_operation_fails_once_and_inconsistency_marks_the_run():
    tally = stats.Tally(attempted=3)
    tally.fail(1, "out of range")
    tally.inconsistent(1, "disagrees with Monte Carlo")
    assert tally.failed == 1
    assert tally.failures[1] == "out of range"
    assert not tally.correct
