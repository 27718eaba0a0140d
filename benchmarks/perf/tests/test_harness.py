import signal
import statistics
import time
import types

import pytest
from harness import (
    MIN_REGION_S,
    REFERENCE_KERNEL_S,
    SAMPLE_INTERVAL_S,
    HostSpeed,
    SpanRecorder,
    percentile,
    quartiles,
    ratio_or_null,
    timed_adjusted,
)


def _spin(n):
    return sum(range(n))


def test_self_times_sum_to_the_root_span():
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", _spin)
    mid = rec.wrap("mid", lambda: [leaf(2000) for _ in range(5)] and _spin(3000))
    for _ in range(3):
        with rec.span("root"):
            mid()
            leaf(1000)
            _spin(500)
    seconds, calls = rec.self_times()
    roots = sum(end - start for _, _, start, end, parent in rec.spans if parent == -1)
    assert calls == {"root": 3, "mid": 3, "leaf": 18}
    assert all(s >= 0 for s in seconds.values())
    assert sum(seconds.values()) == pytest.approx(roots, rel=0.01)


def test_self_times_over_a_range_ignore_earlier_spans():
    rec = SpanRecorder()
    with rec.span("setup"):
        _spin(100)
    mark = len(rec.spans)
    with rec.span("op"):
        with rec.span("inner"):
            _spin(100)
    before, _ = rec.self_times(0, mark)
    after, _ = rec.self_times(mark)
    assert set(before) == {"setup"} and set(after) == {"op", "inner"}


def test_patch_rebinds_and_restore_puts_back():
    rec = SpanRecorder()
    owner = types.SimpleNamespace(work=_spin)
    rec.patch(owner, "work", "layer.work")
    assert owner.work(10) == 45 and owner.work is not _spin
    rec.restore()
    assert owner.work is _spin
    assert [row[:2] for row in rec.spans] == [["layer.work", "_spin"]]


def test_span_closes_when_the_wrapped_call_raises():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("layer", boom)()
    with rec.span("next"):
        pass
    assert rec.spans[0][3] >= rec.spans[0][2]
    assert rec.spans[1][4] == -1  # the failed span did not stay open


def _busy(seconds):
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        _spin(200)


def test_host_speed_samples_in_band_and_leaves_its_own_time_out():
    before = time.perf_counter()
    with HostSpeed() as region:
        _busy(8 * SAMPLE_INTERVAL_S)
    gross = time.perf_counter() - before
    assert len(region.samples) >= 4
    sampled = sum(took for _, took in region.samples)
    assert region.wall_s == pytest.approx(gross - sampled, rel=0.05)
    speeds = [REFERENCE_KERNEL_S / took for _, took in region.samples]
    assert min(speeds) <= region.adjusted_s / region.wall_s <= max(speeds)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_speed_reads_the_host_after_a_region_too_short_to_sample():
    with HostSpeed() as region:
        _spin(100)
    assert region.samples == []
    assert 0 < region.wall_s < SAMPLE_INTERVAL_S and region.adjusted_s > 0


def test_host_speed_regions_do_not_nest():
    with HostSpeed():
        with pytest.raises(RuntimeError):
            HostSpeed().__enter__()
    _, wall, adjusted = timed_adjusted(lambda: _spin(1000))  # the outer one closed
    assert wall > 0 and adjusted > 0


def test_adjusting_recorder_samples_root_spans_only():
    rec = SpanRecorder(adjust=True)
    with rec.span("setup.a"):
        with rec.span("inner"):
            _spin(1000)
    with rec.span("setup.b"):
        _spin(1000)
    assert sorted(rec.adjusted_s) == [0, 2]
    assert rec.root_seconds() == pytest.approx(rec.adjusted_s[0] + rec.adjusted_s[2])
    assert rec.root_seconds(2) == pytest.approx(rec.adjusted_s[2])
    plain = SpanRecorder()
    with plain.span("setup"):
        _spin(1000)
    assert plain.adjusted_s == {}
    assert plain.root_seconds() == plain.spans[0][3] - plain.spans[0][2]


def test_ratio_is_null_with_a_reason_under_the_floor():
    cell = ratio_or_null("x.share", lambda: 0.5, "ratio", 2.0, MIN_REGION_S / 2)
    assert cell["value"] is None and "floor" in cell["reason"]
    assert ratio_or_null("x.share", lambda: 0.5, "ratio")["value"] is None


def test_ratio_is_reported_as_measured_above_the_floor():
    cell = ratio_or_null("x.share", lambda: -0.03, "ratio", 1.5, 2.0)
    assert cell == {"name": "x.share", "value": -0.03, "unit": "ratio"}  # not clamped


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99.9) == 999
    assert percentile([7], 99) == 7
