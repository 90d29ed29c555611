"""Flight-recorder time series: periodic MetricSet sampling in sim time.

The tracer (PR 4) answers *what happened when*; the profiler (PR 8)
answers *where the wall time went*.  This module answers *what did the
cluster look like over time*: a :class:`Sampler` snapshots a registered
:class:`~repro.sim.stats.MetricSet` at a fixed simulated-time interval
into a columnar :class:`TimeSeriesStore`, turning the always-on
counters/gauges/histograms into p50/p99-over-time curves that line up
with trace spans (same simulated clock, same run indices).

Design constraints, in order -- the same three the tracer obeys:

1. **Determinism.**  The sampler is *not* a simulation process.  The
   engine's run loop drains to each sample instant using the same
   ``until`` mechanism callers use, takes the sample, and continues; no
   event is ever scheduled and the ``(time, seq)`` tie-break counter is
   never touched, so a sampled run executes the exact same schedule as
   an unsampled one (tested bit-for-bit in
   ``tests/test_flight_recorder.py``).  Sampling itself only *reads*
   component instruments: windowed histogram percentiles are computed
   from deltas of the cumulative bucket counts, never by mutating the
   shared :class:`Histogram` objects.
2. **Zero cost when disabled.**  The engine consults
   :func:`active_sampler` once per ``run()`` call -- never per event --
   so the disabled path costs one attribute load per run.
3. **No sim imports.**  ``sim/engine.py`` imports this module; the
   reverse would be a cycle.  The MetricSet is duck-typed through its
   ``as_dict`` contract.
"""

from __future__ import annotations

import json
from collections import deque
from math import fsum
from types import TracebackType
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

__all__ = [
    "SCHEMA",
    "TimeSeriesStore",
    "Sampler",
    "active_sampler",
    "capture",
    "percentile_from_buckets",
    "write_timeseries",
    "load_timeseries",
]

#: Schema tag stamped on every JSONL export header.
SCHEMA = "raidp-timeseries-v1"

#: Ring-buffer depth per series (and for the shared time column).
DEFAULT_CAPACITY = 4096

#: Sample every half simulated second by default: fine enough to
#: resolve the paper's ~10s recovery windows, coarse enough that a
#: 2000s chaos horizon stays a few thousand rows.
DEFAULT_INTERVAL = 0.5

#: Quantiles reported per histogram window (p50/p99 are the SLO pair).
DEFAULT_PERCENTILES = (0.5, 0.99)


def percentile_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.99 -> "p99"``, ``0.999 -> "p999"``."""
    return "p" + format(q * 100.0, "g").replace(".", "")


def percentile_from_buckets(
    bounds: Tuple[float, ...],
    counts: List[int],
    q: float,
    observed_max: float,
) -> float:
    """Bucket-quantile kernel for the windowed deltas: linear
    interpolation within the bucket holding the target rank.

    ``counts`` has ``len(bounds) + 1`` entries; the last bucket is
    open-ended and interpolates toward ``observed_max``.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        previous = cumulative
        cumulative += count
        if cumulative >= target:
            lo = bounds[index - 1] if index > 0 else 0.0
            hi = bounds[index] if index < len(bounds) else observed_max
            if hi < lo:
                hi = lo
            fraction = (target - previous) / count
            return lo + (hi - lo) * fraction
    return observed_max


class TimeSeriesStore:
    """Columnar ring-buffer: one shared time column, one column per series.

    All columns are ``deque(maxlen=capacity)`` and every :meth:`append`
    pushes one entry to *every* column (``None`` where a series has no
    value this tick), so eviction keeps the columns aligned: row ``i``
    of any column belongs to row ``i`` of the time column.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: (run, ts) per retained sample, oldest first.
        self._time: Deque[Tuple[int, float]] = deque(maxlen=capacity)
        self._series: Dict[str, Deque[Optional[float]]] = {}
        self.total_appended = 0

    def __len__(self) -> int:
        return len(self._time)

    def names(self) -> List[str]:
        return sorted(self._series)

    def append(self, run: int, ts: float, values: Dict[str, float]) -> None:
        length = len(self._time)
        for name in values:
            if name not in self._series:
                column: Deque[Optional[float]] = deque(maxlen=self.capacity)
                column.extend([None] * length)
                self._series[name] = column
        self._time.append((run, ts))
        for name, column in self._series.items():
            column.append(values.get(name))
        self.total_appended += 1

    def series(
        self, name: str, run: Optional[int] = None
    ) -> List[Tuple[float, float]]:
        """Retained ``(ts, value)`` pairs of one series, oldest first."""
        column = self._series.get(name)
        if column is None:
            return []
        points: List[Tuple[float, float]] = []
        for (row_run, ts), value in zip(self._time, column):
            if value is None:
                continue
            if run is not None and row_run != run:
                continue
            points.append((ts, value))
        return points

    def rows(self) -> Iterator[Tuple[int, float, Dict[str, float]]]:
        """Retained rows as ``(run, ts, {series: value})``, oldest first.

        Series are emitted in sorted-name order so exports are
        byte-stable across runs.
        """
        ordered = sorted(self._series.items())
        for index, (run, ts) in enumerate(self._time):
            row: Dict[str, float] = {}
            for name, column in ordered:
                value = column[index]
                if value is not None:
                    row[name] = value
            yield run, ts, row


class Sampler:
    """Periodic MetricSet sampler driven by the engine's run loop.

    The engine (when a sampler is active) drains to each
    :meth:`next_due` instant and calls :meth:`sample`; everything else
    -- which registries to read, windowed percentiles, on-sample hooks
    for the auditor -- lives here.  ``enabled`` may be flipped to
    ``False`` to mute an installed sampler; the engine re-checks it on
    every ``run()``.
    """

    enabled: bool = True

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES,
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.interval = float(interval)
        self.percentiles = tuple(percentiles)
        self.store = TimeSeriesStore(capacity)
        self.samples_taken = 0
        self.run = 0
        self._run_labels: List[str] = []
        self._base = 0.0
        self._ticks = 0
        self._metrics: List[Any] = []
        # Per-histogram-key (cumulative_count, cumulative_sum, counts)
        # at the previous tick; windows are deltas against this.
        self._prev_hist: Dict[str, Tuple[int, float, List[int]]] = {}
        self._hooks: List[Callable[[Any, float], None]] = []

    # -- registration ---------------------------------------------------
    def watch(self, metrics: Any) -> Any:
        """Sample ``metrics`` (a MetricSet) at every subsequent tick."""
        if metrics not in self._metrics:
            self._metrics.append(metrics)
        return metrics

    def on_sample(self, hook: Callable[[Any, float], None]) -> None:
        """Run ``hook(sim, now)`` after each sample (auditor probes)."""
        self._hooks.append(hook)

    def register_run(self, start: float, label: str = "") -> int:
        """Called by each Simulator binding this sampler at construction.

        Restarts the tick grid at ``start`` (sample instants are
        ``start + k * interval``, computed by multiplication so the grid
        never drifts) and opens a new run index, mirroring the tracer's
        run bookkeeping so rows align with trace events.  The previous
        run's watched registries and hooks are dropped with its grid:
        they belong to a finished simulation, which a hook would go on
        auditing at every tick of this one.
        """
        index = len(self._run_labels)
        self._run_labels.append(label or f"run-{index}")
        self.run = index
        self._base = float(start)
        self._ticks = 0
        self._prev_hist.clear()
        self._metrics.clear()
        self._hooks.clear()
        return index

    @property
    def run_labels(self) -> Tuple[str, ...]:
        return tuple(self._run_labels)

    # -- the engine-facing protocol -------------------------------------
    def next_due(self) -> float:
        return self._base + (self._ticks + 1) * self.interval

    def sample(self, sim: Any) -> None:
        """Record one row at ``sim.now`` (the engine guarantees
        ``sim.now == next_due()`` when it calls this)."""
        now = sim.now
        self._ticks += 1
        values: Dict[str, float] = {}
        # Aggregate windows across same-named labeled histograms
        # (e.g. disk_io_latency{disk=...} -> cluster-wide disk_io_latency).
        aggregates: Dict[str, Tuple[Tuple[float, ...], List[int], List[float], float]] = {}
        for metrics in self._metrics:
            snapshot = metrics.as_dict(now)
            for key, count in snapshot["counters"].items():
                values[key] = float(count)
            for key, gauge in snapshot["gauges"].items():
                values[key] = float(gauge["current"])
            for key, hist in snapshot["histograms"].items():
                self._sample_histogram(key, hist, values, aggregates)
        for base in sorted(aggregates):
            bounds, delta_counts, delta_sums, observed_max = aggregates[base]
            self._emit_window(
                base, bounds, delta_counts, fsum(delta_sums), observed_max, values
            )
        self.store.append(self.run, now, values)
        self.samples_taken += 1
        trace = getattr(sim, "trace", None)
        if trace is not None and trace.enabled:
            trace.instant(
                "telemetry", "sample", ts=now, tick=self._ticks, series=len(values)
            )
        for hook in self._hooks:
            hook(sim, now)

    # -- internals ------------------------------------------------------
    def _sample_histogram(
        self,
        key: str,
        hist: Dict[str, Any],
        values: Dict[str, float],
        aggregates: Dict[str, Tuple[Tuple[float, ...], List[int], List[float], float]],
    ) -> None:
        counts: List[int] = list(hist["counts"])
        total = int(hist["count"])
        total_sum = float(hist["sum"])
        observed_max = float(hist["max"])
        bounds = tuple(float(b) for b in hist["bounds"])
        previous = self._prev_hist.get(key)
        if previous is None:
            prev_total, prev_sum, prev_counts = 0, 0.0, [0] * len(counts)
        else:
            prev_total, prev_sum, prev_counts = previous
        delta_counts = [c - p for c, p in zip(counts, prev_counts)]
        delta_sum = total_sum - prev_sum
        self._prev_hist[key] = (total, total_sum, counts)
        self._emit_window(key, bounds, delta_counts, delta_sum, observed_max, values)
        if "{" in key:
            base = key.split("{", 1)[0]
            entry = aggregates.get(base)
            if entry is None:
                aggregates[base] = (bounds, list(delta_counts), [delta_sum], observed_max)
            elif entry[0] == bounds:
                for index, delta in enumerate(delta_counts):
                    entry[1][index] += delta
                entry[2].append(delta_sum)
                if observed_max > entry[3]:
                    aggregates[base] = (entry[0], entry[1], entry[2], observed_max)

    def _emit_window(
        self,
        key: str,
        bounds: Tuple[float, ...],
        delta_counts: List[int],
        delta_sum: float,
        observed_max: float,
        values: Dict[str, float],
    ) -> None:
        window_count = sum(delta_counts)
        values[f"{key}:count"] = float(window_count)
        if window_count > 0:
            values[f"{key}:mean"] = delta_sum / window_count
        for q in self.percentiles:
            values[f"{key}:{percentile_label(q)}"] = percentile_from_buckets(
                bounds, delta_counts, q, observed_max
            )

    # -- export ---------------------------------------------------------
    def to_jsonl(self) -> Iterator[str]:
        """One header line, then one line per retained sample row."""
        header = {
            "kind": "header",
            "schema": SCHEMA,
            "interval": self.interval,
            "percentiles": list(self.percentiles),
            "runs": list(self._run_labels),
            "series": self.store.names(),
            "samples_total": self.store.total_appended,
            "samples_retained": len(self.store),
        }
        yield json.dumps(header, sort_keys=True)
        for run, ts, row in self.store.rows():
            yield json.dumps(
                {"kind": "sample", "run": run, "ts": ts, "values": row},
                sort_keys=True,
            )

    def write_jsonl(self, stream: IO[str]) -> int:
        lines = 0
        for line in self.to_jsonl():
            stream.write(line + "\n")
            lines += 1
        return lines


def write_timeseries(sampler: Sampler, path: str) -> int:
    """Write the sampler's retained rows as JSONL; returns line count."""
    with open(path, "w", encoding="utf-8") as stream:
        return sampler.write_jsonl(stream)


def load_timeseries(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a JSONL export back: ``(header, sample_rows)``."""
    header: Dict[str, Any] = {}
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "header":
                header = record
                if record.get("schema") != SCHEMA:
                    raise ValueError(
                        f"unexpected time-series schema {record.get('schema')!r}"
                    )
            else:
                rows.append(record)
    return header, rows


# The currently active sampler.  New Simulators pick this up at
# construction time; already-built simulators keep whatever they bound.
_ACTIVE: Optional[Sampler] = None


def active_sampler() -> Optional[Sampler]:
    """The sampler new Simulators bind to (None when disabled)."""
    return _ACTIVE


class capture:
    """``with capture(interval=...) as sampler:`` -- scoped activation."""

    __slots__ = ("_sampler", "_previous")

    def __init__(
        self,
        sampler: Optional[Sampler] = None,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES,
    ) -> None:
        self._sampler = (
            sampler
            if sampler is not None
            else Sampler(interval=interval, capacity=capacity, percentiles=percentiles)
        )
        self._previous: Optional[Sampler] = None

    def __enter__(self) -> Sampler:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._sampler
        return self._sampler

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
