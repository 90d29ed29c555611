"""Unit tests for the measurement helpers."""

import pytest

from repro.sim.stats import Histogram, TimeWeightedGauge, mean


def test_time_weighted_gauge_average():
    gauge = TimeWeightedGauge(start_time=0.0)
    gauge.set(2.0, now=1.0)  # value 0 held for [0, 1)
    gauge.set(4.0, now=3.0)  # value 2 held for [1, 3)
    # At t=4: areas 0*1 + 2*2 + 4*1 = 8 over 4 seconds.
    assert gauge.average(4.0) == pytest.approx(2.0)
    assert gauge.max_value == 4.0
    assert gauge.current == 4.0


def test_gauge_adjust_and_monotone_time():
    gauge = TimeWeightedGauge()
    gauge.adjust(+1, now=1.0)
    gauge.adjust(+1, now=2.0)
    gauge.adjust(-2, now=3.0)
    assert gauge.current == 0
    with pytest.raises(ValueError):
        gauge.set(1.0, now=0.5)


def test_gauge_average_at_start_time():
    gauge = TimeWeightedGauge(start_time=5.0, initial=3.0)
    assert gauge.average(5.0) == 3.0


def test_histogram_buckets_and_mean():
    hist = Histogram(bounds=(1.0, 10.0))
    for sample in (0.5, 5.0, 50.0, 0.1):
        hist.observe(sample)
    assert hist.counts == [2, 1, 1]
    assert hist.total == 4
    assert hist.sum == pytest.approx(0.5 + 5.0 + 50.0 + 0.1)
    assert hist.max == 50.0


def test_histogram_bisect_matches_linear_scan():
    # observe() switched to bisect; the bucket choice must match the old
    # linear scan exactly, including samples equal to a bucket bound.
    bounds = (0.001, 0.01, 0.1, 1.0, 10.0)
    hist = Histogram(bounds=bounds)
    samples = [0.0005, 0.001, 0.0011, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 10.0, 99.0]
    for sample in samples:
        hist.observe(sample)
    expected = [0] * (len(bounds) + 1)
    for sample in samples:
        index = 0
        while index < len(bounds) and sample > bounds[index]:
            index += 1
        expected[index] += 1
    assert hist.counts == expected


def test_mean_helper():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert mean([]) == 0.0
