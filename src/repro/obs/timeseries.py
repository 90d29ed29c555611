"""Flight-recorder time series: the cluster's instruments as trace counter tracks.

The tracer answers *what happened when*; the profiler answers *where
the wall time went*.  This module answers *what did the cluster look
like over time*: at a fixed simulated-time interval a :class:`Sampler`
takes one :func:`~repro.obs.metrics.read_cluster` reading of the watched
cluster and writes every value into the simulation's trace as a
``telemetry`` counter event (Chrome phase ``"C"``), one track per series,
turning the always-on counts/gauges/histograms into p50/p99-over-time
curves on the same clock, run index and file as the trace's spans.

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
   the disabled path costs one ``is not None`` per ``run()``; a bound
   sampler reads the cluster only when the simulation's tracer is
   enabled (its on-sample hooks run either way).
3. **No sim imports.**  ``sim/engine.py`` imports this module; the
   reverse would be a cycle.  The cluster is duck-typed through the
   reader.
"""

from __future__ import annotations

from math import fsum
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro.obs.ambient import Slot
from repro.obs.metrics import read_cluster

__all__ = [
    "Sampler",
    "active_sampler",
    "capture",
    "percentile_from_buckets",
]

#: Sample every half simulated second by default: fine enough to
#: resolve the paper's ~10s recovery windows, coarse enough that a
#: 2000s chaos horizon stays a few thousand ticks.
DEFAULT_INTERVAL = 0.5

#: Quantiles reported per histogram window, by series suffix.
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

    def restart(self, start: float) -> None:
        """Called by each Simulator binding this sampler.

        Restarts the tick grid at ``start`` (sample instants are
        ``start + k * interval``, computed by multiplication so the grid
        never drifts).  The previous run's watched cluster and hooks are
        dropped with its grid: they belong to a finished simulation,
        which a hook would go on auditing at every tick of this one.
        """
        self._base = float(start)
        self._ticks = 0
        self._watched = None
        self._prev_hist.clear()
        self._hooks.clear()

    # -- the engine-facing protocol -------------------------------------
    def next_due(self) -> float:
        return self._base + (self._ticks + 1) * self.interval

    def sample(self, sim: Any) -> None:
        """Write one tick at ``sim.now`` into the trace, one counter event
        per series in sorted-name order (the engine guarantees
        ``sim.now == next_due()`` when it calls this)."""
        now = sim.now
        self._ticks += 1
        trace, watched = sim.trace, self._watched
        if trace.enabled and watched is not None:
            values = self._read(*watched)
            for name in sorted(values):
                trace.count("telemetry", name, now, values[name])
        for hook in self._hooks:
            hook(sim, now)

    def _read(self, dfs: Any, monitor: Optional[Any]) -> Dict[str, float]:
        """One reading of the watched cluster: counts and gauge levels as
        they stand, histograms as windows since the previous tick."""
        values, histograms = read_cluster(dfs, monitor)
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
        return values


_SLOT: Slot[Sampler] = Slot()


def active_sampler() -> Optional[Sampler]:
    """The sampler new Simulators bind to (None when disabled)."""
    return _SLOT.get()


def capture(interval: float) -> ContextManager[Sampler]:
    """``with capture(interval=...) as sampler:`` -- scoped activation."""
    return _SLOT.capture(Sampler(interval))
