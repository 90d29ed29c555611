"""Bench-owned spans and the per-layer numbers derived from a traced run.

Two sources, both observer-only:

- **Spans** recorded by this package around public entry points (the
  benchmark's own task loop, plus wrappers that :func:`install` puts
  around ``experiments.common.build_*``, ``sim.snapshot.capture/restore``
  and ``Simulator.run`` for the traced run only).  A span is
  ``{id, name, start, end, parent, workload, ...}``, kept in memory and
  written to ``trace.json`` when the benchmark ends; a span's self time
  is its duration minus its direct children's.
- **Dispatch buckets** from ``repro.obs.simprofile.capture()``, summed
  per taxonomy category and reported under the module that category
  stands for.  Event counts and simulated seconds are exact; host
  seconds are host measurements.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: simprofile taxonomy category -> the repo module reported as its layer.
CATEGORY_LAYER = {
    "engine": "sim.engine",
    "net": "sim.network",
    "disk": "sim.disk",
    "recovery": "core.recovery",
    "dn": "hdfs.datanode",
    "hdfs": "hdfs.client",
    "journal": "core.journal",
    "workload": "workloads",
    # Process bodies under repro/tools/: the chaos soak's traffic and verify loops.
    "bench": "workloads",
    "fault": "faults",
}

#: Layers that also report simulated seconds (the modelled hardware's time).
SIM_SECONDS_LAYERS = ("sim.network", "sim.disk", "core.recovery")

#: ``experiments.common`` builders wrapped for the traced run.
BUILDERS = (
    "build_raidp_warm",
    "build_hdfs_warm",
    "build_hdfs_written",
    "build_raidp_written",
)

Span = Dict[str, Any]


class Spans:
    """In-memory span recorder; times are seconds since construction."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: List[Span] = []
        #: Called whenever a direct child of a top-level span (a task of
        #: a repetition) has closed.
        self.after_task: Optional[Callable[[], None]] = None
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        record: Span = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        record.update(attrs)
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()
            if self.after_task is not None and len(self._open) == 1:
                self.after_task()

    def within(self, root: Span) -> List[Span]:
        """``root``'s descendants (spans are appended in start order)."""
        inside = {root["id"]}
        found = []
        for record in self.records[root["id"] + 1:]:
            if record["parent"] in inside:
                inside.add(record["id"])
                found.append(record)
        return found


def duration(span: Span) -> float:
    return span["end"] - span["start"]


def self_time(span: Span, descendants: Sequence[Span]) -> float:
    children = (s for s in descendants if s["parent"] == span["id"])
    return duration(span) - sum(duration(child) for child in children)


def install(spans: Spans) -> Callable[[], None]:
    """Wrap the public entry points in spans; returns the undo function.

    The builders are imported *by name* into each experiment module, so
    every ``repro.experiments`` module holding the original function is
    patched, not just ``common``.
    """
    from repro.experiments import common
    from repro.sim import snapshot
    from repro.sim.engine import Simulator

    undo: List[Callable[[], None]] = []

    def wrap(
        owner: Any,
        attr: str,
        name: str,
        note: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with spans.span(name) as record:
                result = original(*args, **kwargs)
                if note is not None:
                    note(record, args, result)
                return result

        setattr(owner, attr, wrapper)
        undo.append(lambda: setattr(owner, attr, original))

    for builder in BUILDERS:
        original = getattr(common, builder)
        for module_name, module in sorted(sys.modules.items()):
            if (
                module_name.startswith("repro.experiments")
                and getattr(module, builder, None) is original
            ):
                wrap(module, builder, f"experiments.common.{builder}")
    wrap(
        snapshot, "capture", "sim.snapshot.capture",
        lambda record, _args, blob: record.update(bytes=len(blob)),
    )
    wrap(
        snapshot, "restore", "sim.snapshot.restore",
        lambda record, args, _obj: record.update(bytes=len(args[0])),
    )
    wrap(Simulator, "run", "Simulator.run")

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


def _critical_path(tasks: Sequence[Span]) -> float:
    """Longest dependency chain of task spans: the floor of any --jobs N run."""
    finish: Dict[str, float] = {}
    for task in tasks:  # emission order is a valid topological order
        waited = max((finish.get(dep, 0.0) for dep in task.get("deps", ())), default=0.0)
        finish[task["key"]] = waited + duration(task)
    return max(finish.values(), default=0.0)


def layer_metrics(
    spans: Spans,
    setup: Sequence[Span],
    traced_rep: Span,
    untraced_rep_s: float,
    profiler: Any,
) -> Dict[str, float]:
    """Every span- and bucket-derived per-layer metric of one traced run.

    ``setup`` are the set-up spans (reference pass, warm-up): cold builds
    and captures happen there.  ``traced_rep`` is the repetition that ran
    under :func:`install` and ``simprofile.capture()``.
    """
    metrics: Dict[str, float] = {}

    # -- dispatch buckets -------------------------------------------------
    per_layer: Dict[str, List[float]] = {
        layer: [0, 0.0, 0.0] for layer in CATEGORY_LAYER.values()
    }
    for bucket in profiler.buckets.values():
        layer = CATEGORY_LAYER.get(bucket.category, "sim.engine")
        per_layer[layer][0] += bucket.events
        per_layer[layer][1] += bucket.wall_seconds
        per_layer[layer][2] += bucket.sim_seconds
    for layer, (events, host_s, sim_s) in per_layer.items():
        metrics[f"{layer}.events"] = events
        metrics[f"{layer}.host_s"] = host_s
        if layer in SIM_SECONDS_LAYERS:
            metrics[f"{layer}.sim_s"] = sim_s
    totals = profiler.totals()
    rep_s = duration(traced_rep)
    metrics["sim.events_total"] = totals["events"]
    metrics["sim.host_us_per_event"] = (
        totals["wall_seconds"] / totals["events"] * 1e6 if totals["events"] else 0.0
    )
    metrics["sim.dispatch_share"] = totals["wall_seconds"] / rep_s * 100.0

    # -- spans of the traced repetition -----------------------------------
    inside = spans.within(traced_rep)

    def named(name: str, pool: Sequence[Span] = inside) -> List[Span]:
        return [s for s in pool if s["name"] == name]

    tasks = named("run_task")
    metrics["experiments.task_s_p50"] = (
        statistics.median(duration(t) for t in tasks) if tasks else 0.0
    )
    metrics["experiments.longest_task_s"] = _critical_path(tasks)
    metrics["experiments.harness_self_s"] = self_time(traced_rep, inside) if tasks else 0.0
    restores = named("sim.snapshot.restore")
    metrics["sim.snapshot.restore_s"] = sum(duration(s) for s in restores)
    metrics["sim.snapshot.restore_count"] = len(restores)
    trials = named("DurabilityEngine.run")
    metrics["analysis.montecarlo.trial_ms"] = (
        sum(duration(s) for s in trials) / sum(s["trials"] for s in trials) * 1e3
        if trials else 0.0
    )
    soaks = named("run_chaos")
    metrics["tools.chaos.run_s_p50"] = (
        statistics.median(duration(s) for s in soaks) if soaks else 0.0
    )
    metrics["trace.overhead_pct"] = (rep_s - untraced_rep_s) / untraced_rep_s * 100.0

    # -- set-up spans: cold builds and captures ---------------------------
    before: List[Span] = []
    for root in setup:
        before.extend(spans.within(root))
    # Outermost build/capture spans only: a capture inside a builder is
    # already inside that builder's time.
    covered: set = set()
    build_s = 0.0
    for s in before:
        if s["parent"] in covered:
            covered.add(s["id"])
        elif (
            s["name"].startswith("experiments.common.build_")
            or s["name"] == "sim.snapshot.capture"
        ):
            covered.add(s["id"])
            build_s += duration(s)
    metrics["sim.snapshot.build_s"] = build_s
    metrics["sim.snapshot.blob_kb"] = (
        sum(s["bytes"] for s in named("sim.snapshot.capture", before)) / 1024.0
    )
    return metrics
