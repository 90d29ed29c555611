"""Flight-recorder time series: the cluster's instruments, sampled in sim time.

The tracer answers *what happened when*; the profiler answers *where
the wall time went*.  This module answers *what did the cluster look
like over time*: at a fixed simulated-time interval a :class:`Sampler`
takes one :func:`~repro.obs.metrics.read_cluster` reading of the watched
cluster into a columnar :class:`TimeSeriesStore`, turning the always-on
counts/gauges/histograms into p50/p99-over-time curves that line up
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
   components' :class:`~repro.sim.stats.Histogram` objects.
2. **Zero cost when disabled.**  The engine consults
   :func:`active_sampler` once per Simulator -- never per event -- so
   the disabled path costs one ``is not None`` per ``run()``.
3. **No sim imports.**  ``sim/engine.py`` imports this module; the
   reverse would be a cycle.  The cluster is duck-typed through the
   reader.
"""

from __future__ import annotations

import json
from collections import deque
from math import fsum
from typing import (
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.obs.ambient import Slot
from repro.obs.metrics import read_cluster

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
CAPACITY = 4096

#: Sample every half simulated second by default: fine enough to
#: resolve the paper's ~10s recovery windows, coarse enough that a
#: 2000s chaos horizon stays a few thousand rows.
DEFAULT_INTERVAL = 0.5

#: Quantiles reported per histogram window, by series suffix (p50/p99
#: are the SLO pair).
PERCENTILES = {"p50": 0.5, "p99": 0.99}


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


def _emit_window(
    values: Dict[str, float],
    key: str,
    bounds: Tuple[float, ...],
    delta_counts: List[int],
    delta_sum: float,
    observed_max: float,
) -> None:
    """Write one histogram window's ``:count``/``:mean``/``:pNN`` series."""
    window_count = sum(delta_counts)
    values[f"{key}:count"] = float(window_count)
    if window_count > 0:
        values[f"{key}:mean"] = delta_sum / window_count
    for label, q in PERCENTILES.items():
        values[f"{key}:{label}"] = percentile_from_buckets(
            bounds, delta_counts, q, observed_max
        )


class TimeSeriesStore:
    """Columnar ring-buffer: one shared time column, one column per series.

    All columns are ``deque(maxlen=capacity)`` and every :meth:`append`
    pushes one entry to *every* column (``None`` where a series has no
    value this tick), so eviction keeps the columns aligned: row ``i``
    of any column belongs to row ``i`` of the time column.
    """

    def __init__(self, capacity: int) -> None:
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
    """Periodic cluster sampler driven by the engine's run loop.

    The engine (when a sampler is bound) drains to each
    :meth:`next_due` instant and calls :meth:`sample`; everything else
    -- which cluster to read, windowed percentiles, on-sample hooks for
    the auditor -- lives here.
    """

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.interval = float(interval)
        self.store = TimeSeriesStore(CAPACITY)
        self.run = 0
        self.run_labels: List[str] = []
        self._base = 0.0
        self._ticks = 0
        #: ``read_cluster``'s arguments, once someone called :meth:`watch`.
        self._watched: Optional[Tuple[Any, Optional[Any]]] = None
        # Per-histogram-key (cumulative sum, cumulative counts) at the
        # previous tick; windows are deltas against this.
        self._prev_hist: Dict[str, Tuple[float, List[int]]] = {}
        self._hooks: List[Callable[[Any, float], None]] = []

    # -- registration ---------------------------------------------------
    def watch(self, dfs: Any, monitor: Optional[Any] = None) -> None:
        """Sample ``dfs`` (and ``monitor``'s repair accounting) at every
        subsequent tick of this run.

        The first window starts here: its baseline is the watched
        cluster's histograms as they stand (all zero on a fresh cluster;
        a restored one carries the phase that wrote it).
        """
        self._watched = (dfs, monitor)
        _readings, histograms = read_cluster(dfs, monitor)
        self._prev_hist = {
            key: (hist.sum, list(hist.counts)) for key, hist in histograms.items()
        }

    def on_sample(self, hook: Callable[[Any, float], None]) -> None:
        """Run ``hook(sim, now)`` after each sample (auditor probes)."""
        self._hooks.append(hook)

    def register_run(self, start: float) -> None:
        """Called by each Simulator binding this sampler at construction.

        Restarts the tick grid at ``start`` (sample instants are
        ``start + k * interval``, computed by multiplication so the grid
        never drifts) and opens a new run index, mirroring the tracer's
        run bookkeeping so rows align with trace events.  The previous
        run's watched cluster and hooks are dropped with its grid: they
        belong to a finished simulation, which a hook would go on
        auditing at every tick of this one.
        """
        index = len(self.run_labels)
        self.run_labels.append(f"run-{index}")
        self.run = index
        self._base = float(start)
        self._ticks = 0
        self._watched = None
        self._prev_hist.clear()
        self._hooks.clear()

    # -- the engine-facing protocol -------------------------------------
    def next_due(self) -> float:
        return self._base + (self._ticks + 1) * self.interval

    def sample(self, sim: Any) -> None:
        """Record one row at ``sim.now`` (the engine guarantees
        ``sim.now == next_due()`` when it calls this)."""
        now = sim.now
        self._ticks += 1
        values: Dict[str, float] = {}
        histograms: Dict[str, Any] = {}
        if self._watched is not None:
            values, histograms = read_cluster(*self._watched)
        # Same-named labeled histograms also roll up into one window
        # (disk_io_latency{disk=...} -> cluster-wide disk_io_latency):
        # base name -> [bounds, bucket deltas, sum deltas, observed max].
        rollups: Dict[str, List[Any]] = {}
        for key, hist in histograms.items():
            counts = list(hist.counts)
            prev_sum, prev_counts = self._prev_hist.get(key, (0.0, [0] * len(counts)))
            self._prev_hist[key] = (hist.sum, counts)
            delta_counts = [c - p for c, p in zip(counts, prev_counts)]
            delta_sum = hist.sum - prev_sum
            _emit_window(values, key, hist.bounds, delta_counts, delta_sum, hist.max)
            base = key.split("{", 1)[0]
            if base == key:
                continue
            rollup = rollups.get(base)
            if rollup is None:
                rollups[base] = [hist.bounds, delta_counts, [delta_sum], hist.max]
            elif rollup[0] == hist.bounds:
                rollup[1] = [a + b for a, b in zip(rollup[1], delta_counts)]
                rollup[2].append(delta_sum)
                rollup[3] = max(rollup[3], hist.max)
        for base, (bounds, delta_counts, delta_sums, observed_max) in rollups.items():
            _emit_window(
                values, base, bounds, delta_counts, fsum(delta_sums), observed_max
            )
        self.store.append(self.run, now, values)
        trace = sim.trace
        if trace.enabled:
            trace.instant(
                "telemetry", "sample", ts=now, tick=self._ticks, series=len(values)
            )
        for hook in self._hooks:
            hook(sim, now)


def write_timeseries(sampler: Sampler, path: str) -> int:
    """Export as JSONL -- one header line, then one line per retained
    sample row; returns the line count."""
    store = sampler.store
    header = {
        "kind": "header",
        "schema": SCHEMA,
        "interval": sampler.interval,
        "percentiles": list(PERCENTILES.values()),
        "runs": list(sampler.run_labels),
        "series": store.names(),
        "samples_total": store.total_appended,
        "samples_retained": len(store),
    }
    lines = 1
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(json.dumps(header, sort_keys=True) + "\n")
        for run, ts, row in store.rows():
            sample = {"kind": "sample", "run": run, "ts": ts, "values": row}
            stream.write(json.dumps(sample, sort_keys=True) + "\n")
            lines += 1
    return lines


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


_SLOT: Slot[Sampler] = Slot()


def active_sampler() -> Optional[Sampler]:
    """The sampler new Simulators bind to (None when disabled)."""
    return _SLOT.get()


def capture(interval: float) -> ContextManager[Sampler]:
    """``with capture(interval=...) as sampler:`` -- scoped activation."""
    return _SLOT.capture(Sampler(interval))
