"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import statistics
import sys

import pytest

from worker import SRC
from spans import SpanRecorder, aggregate, install, read_spans, self_times, uninstall
from summary import describe, median, quartiles, result_digest, spread

sys.path.insert(0, SRC)


# -- digest ---------------------------------------------------------------

PAYLOAD = {
    "scenario_name": "2_series",
    "throughput_cps": 10216.666666666666,
    "invite_rt": {"count": 4, "p50": 0.0011},
    "proxy_utilization": {"P1": 0.71, "P2": 0.69},
    "proxy_overloaded": {"P1": False, "P2": False},
}


def test_digest_is_stable_and_ignores_key_order():
    reordered = dict(reversed(list(PAYLOAD.items())))
    assert result_digest(PAYLOAD, 1000) == result_digest(reordered, 1000)
    assert len(result_digest(PAYLOAD, 1000)) == 64


def test_digest_sees_one_ulp_and_the_event_count():
    nudged = dict(PAYLOAD, throughput_cps=10216.666666666668)
    assert result_digest(PAYLOAD, 1000) != result_digest(nudged, 1000)
    assert result_digest(PAYLOAD, 1000) != result_digest(PAYLOAD, 1001)


def test_digest_of_a_real_payload_round_trips():
    from repro.harness.runner import RunResult

    result = RunResult("2_series", 10000.0, 4.0)
    result.throughput_cps = 0.1 + 0.2
    result.proxy_utilization = {"P1": 1 / 3}
    clone = RunResult.from_payload(result.to_payload())
    assert (result_digest(result.to_payload(), 7)
            == result_digest(clone.to_payload(), 7))


# -- self time over nested spans -----------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("run", 0.0, 10.0, -1),
        ("recv", 1.0, 5.0, 0),
        ("send", 2.0, 3.0, 1),
        ("copy", 3.5, 4.0, 1),
        ("recv", 6.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 0.5, 3.0])
    totals = aggregate(spans)
    assert totals["recv"] == {"calls": 2, "self_s": pytest.approx(5.5)}
    # Self times always add back up to the roots' durations.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_aggregate_window_counts_only_spans_inside_it():
    spans = [
        ("build", 0.0, 1.0, -1),
        ("write", 0.2, 0.4, 0),
        ("run", 2.0, 5.0, -1),
        ("write", 3.0, 3.5, 2),
    ]
    timed = aggregate(spans, window=(2.0, 5.0))
    assert timed["write"]["calls"] == 1
    assert "build" not in timed


def test_recorder_nests_wrapped_calls_and_round_trips(tmp_path):
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    root = recorder.open("root")
    assert outer(1) == 4
    recorder.close(root)

    spans = recorder.spans()
    assert [(name, parent) for name, _s, _e, parent in spans] == [
        ("root", -1), ("outer", 0), ("inner", 1)]
    # ticks: root 0..5, outer 1..4, inner 2..3
    assert self_times(spans) == [2.0, 2.0, 1.0]
    path = tmp_path / "spans.bin"
    recorder.write(str(path))
    assert read_spans(str(path)) == spans


def test_recorder_closes_a_span_when_the_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise RuntimeError("x")

    wrapped = recorder.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        wrapped()
    ((name, start, end, parent),) = recorder.spans()
    assert end >= start and parent == -1
    assert recorder._stack == [-1]


def test_install_wraps_functions_bound_by_name_and_uninstalls():
    import repro.sip as sip_package
    import repro.sip.parser as parser

    original = parser.parse_message
    recorder = SpanRecorder()
    undo = install(recorder, [("sip.parse", "repro.sip.parser",
                               "parse_message")])
    try:
        assert parser.parse_message is not original
        assert sip_package.parse_message is parser.parse_message
    finally:
        uninstall(undo)
    assert parser.parse_message is original
    assert sip_package.parse_message is original


# -- median and quartiles -------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [7.5, 11.2, 8.0, 9.1, 8.4, 9.9, 10.3, 8.8, 9.0, 7.9]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert median(values) == statistics.median(values)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_quartiles_by_hand():
    # Exclusive method: positions (n + 1) * p = 2.5 and 7.5 of 1..9 scaled.
    values = [10, 20, 30, 40, 50, 60, 70, 80, 90]
    assert quartiles(values) == (25.0, 75.0)
    assert median(values) == 50
    assert describe(values)["spread"] == pytest.approx(1.0)


def test_one_sample_is_its_own_quartiles():
    assert quartiles([3.0]) == (3.0, 3.0)
    assert spread([3.0]) == 0.0

