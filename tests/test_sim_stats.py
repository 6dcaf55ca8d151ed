"""Tests for counters, histograms, and rate meters."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Counter, CounterSet, Histogram, RateMeter
from repro.sim.stats import Tripwire


class TestCounters:
    def test_counter_accumulates(self):
        counter = Counter("x")
        counter.add()
        counter.add(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        counter = Counter("x")
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_counter_reset(self):
        counter = Counter("x", 9)
        counter.reset()
        assert counter.value == 0

    def test_counterset_autocreates(self):
        counters = CounterSet()
        counters.add("frames", 3)
        assert counters.value("frames") == 3
        assert counters.value("unknown") == 0

    def test_counterset_snapshot_sorted(self):
        counters = CounterSet(["b", "a"])
        counters.add("b", 2)
        assert list(counters.snapshot()) == ["a", "b"]

    def test_counterset_reset(self):
        counters = CounterSet(["a"])
        counters.add("a", 4)
        counters.reset()
        assert counters.value("a") == 0


class TestTripwire:
    def test_trips_when_sum_reaches_target(self):
        counters = CounterSet(["a", "b", "c"])
        trips = []
        wire = Tripwire([counters["a"], counters["b"]], lambda: trips.append(1))
        counters.add("a", 2)
        wire.arm(5)
        counters.add("c", 10)  # not watched
        counters.add("b", 2)
        assert trips == []
        counters["a"].add()
        assert trips == [1] and wire.total() == 5
        with pytest.raises(ValueError):
            counters["a"].add(-1)

    def test_release_restores_plain_counters(self):
        counters = CounterSet(["a"])
        trips = []
        wire = Tripwire([counters["a"]], lambda: trips.append(1))
        wire.arm(1)
        wire.release()
        counters.add("a", 3)
        assert trips == [] and type(counters["a"]) is Counter
        assert counters.value("a") == 3

    def test_latest_arm_owns_the_counter(self):
        counter = Counter("x")
        first, second = [], []
        stale = Tripwire([counter], lambda: first.append(1))
        stale.arm(1)
        Tripwire([counter], lambda: second.append(1)).arm(1)
        stale.release()  # no longer its counter: a no-op
        counter.add()
        assert first == [] and second == [1]


class TestHistogram:
    def test_basic_stats(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.record(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        assert hist.minimum == 1.0
        assert hist.maximum == 4.0

    def test_percentiles(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.record(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0

    def test_percentile_after_more_records(self):
        hist = Histogram()
        hist.record(5.0)
        assert hist.percentile(50) == 5.0
        hist.record(1.0)
        assert hist.percentile(50) == 1.0  # re-sorts lazily

    def test_empty_histogram_is_safe(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_percentile_bounds_checked(self):
        hist = Histogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_stddev(self):
        hist = Histogram()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            hist.record(value)
        assert hist.stddev == pytest.approx(2.138, abs=0.01)

    def test_summary_keys(self):
        hist = Histogram()
        hist.record(1.0)
        assert set(hist.summary()) == {"count", "mean", "min", "p50", "p99", "max"}

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentile_within_range(self, values):
        hist = Histogram()
        for value in values:
            hist.record(value)
        for pct in (0, 25, 50, 75, 99, 100):
            assert min(values) <= hist.percentile(pct) <= max(values)


class TestRateMeter:
    def test_gbps(self):
        meter = RateMeter()
        for _ in range(1000):
            meter.record_packet(125)  # 1000 bits each
        # 1e6 bits over 1 ms = 1 Gbps
        assert meter.gbps(1e-3) == pytest.approx(1.0)

    def test_mpps(self):
        meter = RateMeter()
        for _ in range(500):
            meter.record_packet(64)
        assert meter.mpps(1e-3) == pytest.approx(0.5)

    def test_zero_elapsed_is_safe(self):
        meter = RateMeter()
        meter.record_packet(100)
        assert meter.gbps(0) == 0.0
        assert meter.mpps(0) == 0.0

    def test_reset(self):
        meter = RateMeter()
        meter.record_packet(100)
        meter.reset(now=5.0)
        assert meter.bytes_total == 0
        assert meter.start_time == 5.0
