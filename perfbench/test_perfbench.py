"""Tests of the benchmark's own statistics, self-time and reference code.

    python3 -m pytest perfbench
"""

import statistics

import pytest

import refs
import stats
from tracing import layer_metrics, self_times


def span(name, start, end, parent=-1, request="r0", work=None, extra=None):
    return [name, start, end, parent, request, work, extra]


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(1, 41))  # 40 samples
    value, pct, beyond = stats.tail(xs)
    assert value == 30
    assert pct == 75.0
    assert beyond == 10
    assert sum(x > value for x in xs) == 10


def test_tail_is_order_independent():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
    assert stats.tail(xs) == stats.tail(sorted(xs)) == (3.0, 60.0, 10)


def test_tail_is_at_least_the_median():
    for xs in ([3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], list(range(19)), list(range(21))):
        assert stats.tail(xs)[0] >= statistics.median(xs)
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3, 1)
    assert stats.tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 1)
    assert stats.tail(range(22)) == (11, 1200.0 / 22, 10)
    assert stats.tail([7.0]) == (7.0, 100.0, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 5.0, 6.0, parent=0),
        span("d", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_and_clips_outside_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 5.0, parent=0),
        span("c", 3.0, 7.0, parent=0),  # overlaps b: covered 1..7
        span("d", 9.0, 12.0, parent=0),  # only 9..10 lies inside a
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_take_medians_over_requests():
    spans = [
        span("request", 0.0, 10.0, request="r0"),
        span("hyp2.contains_mask", 1.0, 2.0, parent=0, request="r0", work=100),
        span("hyp2.contains_mask", 3.0, 4.0, parent=0, request="r0", work=100),
        span("request", 10.0, 20.0, request="r1"),
        span("hyp2.contains_mask", 11.0, 14.0, parent=3, request="r1", work=50),
        span("maxop.maximal_field", 15.0, 19.0, parent=3, request="r1", work=4, extra={"cells": 10, "ratio": 0.25}),
        span("hyp2.contains_mask", 16.0, 17.0, parent=5, request="r1", work=10),
    ]
    m = layer_metrics(spans)
    assert m["hyp2.contains_mask.calls"] == (2, "count")
    assert m["hyp2.contains_mask.points"][0] == 130  # median of 200 and 60
    assert m["maxop.maximal_field.self_s"][0] == pytest.approx(3.0)
    assert m["maxop.maximal_field.member_cells"][0] == 40
    assert m["maxop.maximal_field.witness_ratio"][0] == 0.25
    assert m["htype.gauge_batch.calls"] == (0, "count")


def test_reference_compare_states_its_tolerance():
    text = '{"observed": 1.5, "pass": true}'
    ref = refs.fingerprint(text)
    assert refs.compare(text, ref)[0] == "match"
    assert refs.compare('{"observed": 1.5000000000001, "pass": true}', ref)[0] == "within_tol"
    assert refs.compare('{"observed": 1.5001, "pass": true}', ref)[0] == "mismatch"
    assert refs.compare('{"observed": 1.5, "pass": false}', ref)[0] == "mismatch"
