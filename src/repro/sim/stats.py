"""Measurement helpers: time-weighted gauges, histograms, exact means.

Components own their numbers: cumulative counts are plain int
attributes (``DiskStats``, ``Switch``, ``Journal``, datanodes,
clients), a level that varies over time is a
:class:`TimeWeightedGauge`, a latency distribution is a
:class:`Histogram`.  Nothing registers anything anywhere;
:func:`repro.obs.metrics.read_cluster` walks the cluster and reads
them where they live.  Everything here is plain arithmetic -- no
simulation dependencies -- which also makes it easy to property-test.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, List, Optional, Tuple

from repro.sim.snapshot import InlineState


class TimeWeightedGauge:
    """A gauge whose average is weighted by how long each value held.

    Used to report, e.g., the average number of outstanding journal
    records (the paper observes "at most one or two outstanding").
    """

    __slots__ = ("_value", "_last_time", "_area", "_start", "max_value")

    def __init__(self, start_time: float = 0.0, initial: float = 0.0) -> None:
        self._value = initial
        self._last_time = start_time
        self._start = start_time
        self._area = 0.0
        self.max_value = initial

    def set(self, value: float, now: float) -> None:
        last = self._last_time
        if now < last:
            raise ValueError("time went backwards")
        self._area += self._value * (now - last)
        self._value = value
        self._last_time = now
        if value > self.max_value:
            self.max_value = value

    def adjust(self, delta: float, now: float) -> None:
        # Inlined set(): gauges sit on the disk/network hot paths, where
        # the extra call per I/O is measurable.  Arithmetic order matches
        # set() exactly so accumulated areas stay bit-identical.
        last = self._last_time
        if now < last:
            raise ValueError("time went backwards")
        value = self._value
        self._area += value * (now - last)
        value += delta
        self._value = value
        self._last_time = now
        if value > self.max_value:
            self.max_value = value

    @property
    def current(self) -> float:
        return self._value

    def average(self, now: Optional[float] = None) -> float:
        if now is None:
            now = self._last_time
        span = now - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / span


@dataclass
class Histogram(InlineState):
    """A tiny fixed-bucket histogram for latency-style samples."""

    bounds: Tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
    counts: List[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0
    max: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, sample: float) -> None:
        # bisect_left = number of bounds strictly below the sample, which
        # matches the old linear scan (equal-to-bound stays in the lower
        # bucket) in O(log n) instead of O(n).
        self.counts[bisect_left(self.bounds, sample)] += 1
        self.total += 1
        self.sum += sample
        if sample > self.max:
            self.max = sample


def mean(samples: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence.

    ``math.fsum`` (exact float summation) rather than ``sum``: repeated
    means over experiment repetitions must not drift with summation
    order.
    """
    values = list(samples)
    return fsum(values) / len(values) if values else 0.0
