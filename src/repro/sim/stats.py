"""Measurement helpers: counters, gauges, and time-weighted averages.

Experiments accumulate metrics through a :class:`MetricSet` so the
benchmark harness can print consistent tables.  Everything here is plain
arithmetic -- no simulation dependencies -- which also makes it easy to
property-test.

Metrics may carry labels (``metrics.counter("disk_reads", disk="n3-d0")``);
labelled children are stored under a canonical ``name{k=v,...}`` key with
the label pairs sorted, so registration order never changes the key.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import fsum
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.timeseries import percentile_from_buckets
from repro.sim.snapshot import InlineState


class Counter(InlineState):
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


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


#: What a MetricSet stores under a counter key: an owned Counter or a
#: live read-only view over a component's own count.
CounterLike = Union[Counter, CounterView]


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

    A gauge observes one *window* of simulated time at a time; windows
    closed by :meth:`reset` (a new experiment repetition restarting the
    clock at zero) or folded in by :meth:`merge` accumulate into
    ``_extra_area``/``_extra_span`` so :meth:`average` stays the
    lifetime time-weighted mean across all windows.
    """

    __slots__ = (
        "_value",
        "_last_time",
        "_area",
        "_start",
        "max_value",
        "_extra_area",
        "_extra_span",
    )

    def __init__(self, start_time: float = 0.0, initial: float = 0.0) -> None:
        self._value = initial
        self._last_time = start_time
        self._start = start_time
        self._area = 0.0
        self.max_value = initial
        self._extra_area = 0.0
        self._extra_span = 0.0

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

    def reset(self, now: float, value: Optional[float] = None) -> None:
        """Start a new observation window at ``now``.

        Experiment repetitions restart simulated time at zero, which a
        plain :meth:`set` would reject as time running backwards.  The
        completed window's area is folded into the lifetime totals, so
        :meth:`average` still reflects every window observed.
        """
        self._extra_area += self._area
        self._extra_span += self._last_time - self._start
        self._area = 0.0
        self._start = now
        self._last_time = now
        if value is not None:
            self._value = value
            self.max_value = max(self.max_value, value)

    def merge(self, other: "TimeWeightedGauge") -> None:
        """Fold another gauge's observed windows into this one's totals."""
        other_area = other._area + other._value * 0.0 + other._extra_area
        other_span = (other._last_time - other._start) + other._extra_span
        self._extra_area += other_area
        self._extra_span += other_span
        self.max_value = max(self.max_value, other.max_value)

    @property
    def current(self) -> float:
        return self._value

    def average(self, now: Optional[float] = None) -> float:
        if now is None:
            now = self._last_time
        span = (now - self._start) + self._extra_span
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time) + self._extra_area
        return area / span


#: What a MetricSet stores under a gauge key: an owned/adopted
#: time-weighted gauge or a live read-only view.
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

    def merge(self, other: "Histogram") -> None:
        if tuple(other.bounds) != tuple(self.bounds):
            raise ValueError("cannot merge histograms with different bounds")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0.0 <= q <= 1.0``) from buckets.

        Linear interpolation within the bucket containing the target
        rank; the open-ended top bucket interpolates toward the observed
        max.  Exact for the bucket edges, approximate inside.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0.0
        return percentile_from_buckets(self.bounds, self.counts, q, self.max)

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
    """A named bag of counters, gauges, and histograms for one run."""

    def __init__(self) -> None:
        self._counters: Dict[str, CounterLike] = {}
        self._gauges: Dict[str, GaugeLike] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- counters -------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> CounterLike:
        key = _key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def register_counter(
        self, name: str, supplier: Callable[[], int], **labels: Any
    ) -> CounterView:
        """Register a live read-only view over a component-owned count."""
        view = CounterView(supplier)
        self._counters[_key(name, labels)] = view
        return view

    def add(self, name: str, amount: int = 1, **labels: Any) -> None:
        self.counter(name, **labels).add(amount)

    def get(self, name: str, **labels: Any) -> int:
        counter = self._counters.get(_key(name, labels))
        return counter.value if counter is not None else 0

    # -- gauges ---------------------------------------------------------
    def gauge(self, name: str, now: float = 0.0, **labels: Any) -> TimeWeightedGauge:
        key = _key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = TimeWeightedGauge(start_time=now)
        if not isinstance(gauge, TimeWeightedGauge):
            raise TypeError(f"{key} is a read-only gauge view")
        return gauge

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

    # -- histograms -----------------------------------------------------
    def histogram(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None, **labels: Any
    ) -> Histogram:
        key = _key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            if bounds is not None:
                histogram = Histogram(bounds=tuple(bounds))
            else:
                histogram = Histogram()
            self._histograms[key] = histogram
        return histogram

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

    def merge(self, other: "MetricSet") -> None:
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                mine = self._counters[key] = Counter()
            # Reading other's value works for owned counters and live
            # views alike; merging *into* a view raises (views mirror a
            # component, they are not aggregation targets).
            mine.add(counter.value)
        for key, gauge in other._gauges.items():
            if isinstance(gauge, GaugeView):
                raise TypeError(f"cannot merge live gauge view {key}")
            mine_gauge = self._gauges.get(key)
            if mine_gauge is None:
                mine_gauge = self._gauges[key] = TimeWeightedGauge()
            if isinstance(mine_gauge, GaugeView):
                raise TypeError(f"cannot merge into live gauge view {key}")
            mine_gauge.merge(gauge)
        for key, histogram in other._histograms.items():
            mine_hist = self._histograms.get(key)
            if mine_hist is None:
                mine_hist = self._histograms[key] = Histogram(
                    bounds=tuple(histogram.bounds)
                )
            mine_hist.merge(histogram)


def mean(samples: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence.

    ``math.fsum`` (exact float summation) rather than ``sum``: repeated
    means over experiment repetitions must not drift with summation
    order (RDP005).
    """
    values = list(samples)
    return fsum(values) / len(values) if values else 0.0
