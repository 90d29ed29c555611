"""Observability: span tracing, metric collection, and trace export.

The package is deliberately dependency-free in the direction that
matters: :mod:`repro.obs.tracer` imports nothing from the simulation
stack, so ``sim/engine.py`` can import it without cycles.  All event
timestamps are *simulated* seconds -- never wall clock -- so traces are
as deterministic as the runs that produce them.
"""

from repro.obs.export import (
    load_trace,
    recovery_breakdown,
    render_summary,
    summarize,
    write_trace,
)
from repro.obs.metrics import cluster_metrics, cluster_snapshot
from repro.obs.tracer import NULL_TRACER, Tracer, active_tracer, capture

__all__ = [
    "NULL_TRACER",
    "Tracer",
    "active_tracer",
    "capture",
    "cluster_metrics",
    "cluster_snapshot",
    "load_trace",
    "recovery_breakdown",
    "render_summary",
    "summarize",
    "write_trace",
]
