"""Measurement helpers: counters, gauges, and time-weighted averages.

Components own their instruments (plain int counts, a
:class:`TimeWeightedGauge`, a :class:`Histogram`); a :class:`MetricSet`
is a registry of live views over them, so one snapshot call reads every
instrument of a cluster.  Everything here is plain arithmetic -- no
simulation dependencies -- which also makes it easy to property-test.

Metrics may carry labels
(``metrics.register_counter("disk_reads", supplier, disk="n3-d0")``);
labelled children are stored under a canonical ``name{k=v,...}`` key with
the label pairs sorted, so registration order never changes the key.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import fsum
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.snapshot import InlineState


class CounterView:
    """A read-only live view of a cumulative count owned by a component.

    Components keep their counts as plain int attributes (``DiskStats``,
    datanode/client stats); a registry that copied those values at
    registration time would report stale numbers forever after.  A view
    re-reads the supplier on every access, so one registry built early
    stays correct for the component's whole lifetime.
    """

    __slots__ = ("_supplier",)

    def __init__(self, supplier: Callable[[], int]) -> None:
        self._supplier = supplier

    @property
    def value(self) -> int:
        return int(self._supplier())

    def add(self, amount: int = 1) -> None:
        raise TypeError("CounterView is read-only; mutate the component")


class GaugeView:
    """A read-only live gauge over a component-owned instantaneous value.

    Unlike :class:`TimeWeightedGauge` nobody pushes updates into it; the
    supplier is re-read on access, and the running max only observes the
    instants at which the view was actually read (the sampler reads every
    tick, so for sampled series the max is the max over sample points).
    ``average`` reports the current value -- a view has no time-weighted
    history of its own.
    """

    __slots__ = ("_supplier", "max_value")

    def __init__(self, supplier: Callable[[], float]) -> None:
        self._supplier = supplier
        self.max_value = 0.0

    @property
    def current(self) -> float:
        value = float(self._supplier())
        if value > self.max_value:
            self.max_value = value
        return value

    def average(self, now: Optional[float] = None) -> float:
        return self.current


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


#: What a MetricSet stores under a gauge key: an adopted time-weighted
#: gauge or a live read-only view.
GaugeLike = Union[TimeWeightedGauge, GaugeView]


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

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.total,
            "sum": self.sum,
            "max": self.max,
            "mean": self.mean,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


def _key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricSet(InlineState):
    """A named registry of live counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, CounterView] = {}
        self._gauges: Dict[str, GaugeLike] = {}
        self._histograms: Dict[str, Histogram] = {}

    def register_counter(
        self, name: str, supplier: Callable[[], int], **labels: Any
    ) -> CounterView:
        """Register a live read-only view over a component-owned count."""
        view = CounterView(supplier)
        self._counters[_key(name, labels)] = view
        return view

    def register_gauge(self, name: str, gauge: GaugeLike, **labels: Any) -> GaugeLike:
        """Adopt a live gauge owned by a component (shared reference)."""
        self._gauges[_key(name, labels)] = gauge
        return gauge

    def register_gauge_view(
        self, name: str, supplier: Callable[[], float], **labels: Any
    ) -> GaugeView:
        """Register a live read-only gauge over a component-owned value."""
        view = GaugeView(supplier)
        self._gauges[_key(name, labels)] = view
        return view

    def register_histogram(
        self, name: str, histogram: Histogram, **labels: Any
    ) -> Histogram:
        """Adopt a live histogram owned by a component (shared reference)."""
        self._histograms[_key(name, labels)] = histogram
        return histogram

    # -- aggregate views ------------------------------------------------
    def as_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Structured snapshot of every metric kind.

        ``now`` extends gauge averages to the snapshot instant; omitted,
        each gauge averages up to its last observation.
        """
        return {
            "counters": {
                key: counter.value for key, counter in sorted(self._counters.items())
            },
            "gauges": {
                key: {
                    "current": gauge.current,
                    "max": gauge.max_value,
                    "average": gauge.average(now),
                }
                for key, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                key: histogram.as_dict()
                for key, histogram in sorted(self._histograms.items())
            },
        }


def mean(samples: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence.

    ``math.fsum`` (exact float summation) rather than ``sum``: repeated
    means over experiment repetitions must not drift with summation
    order (RDP005).
    """
    values = list(samples)
    return fsum(values) / len(values) if values else 0.0
