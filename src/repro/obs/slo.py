"""Declarative SLOs over flight-recorder windows, and the health report.

A number the flight recorder samples explains itself when it is judged
against a stated objective: the chaos soak's health artifact is a
verdict of this module.
An :class:`SloSpec` names a time-series (a :class:`~repro.obs.timeseries`
series such as ``disk_io_latency:p99``), an upper objective, and an
error budget; :func:`evaluate_slos` scores specs over sampler windows --
optionally split into named phases (pre-fault / fault / recovery /
drain) -- computing the *burn rate*: the fraction of samples out of
objective divided by the budgeted fraction.  Burn <= 1 means the window
lived within its budget.

:func:`health_report` bundles per-phase series statistics, SLO
verdicts, audit findings, and repair-traffic accounting into one
JSON-serializable dict (the chaos artifact), and :func:`render_dash`
draws it for a terminal: per-phase sparklines plus verdicts -- the
``raidpctl dash`` renderer.

Stdlib-only and observer-only, like the rest of the flight recorder:
everything here *reads* a sampler's store after (or between) runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import fsum, inf
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SloSpec",
    "SloResult",
    "default_slos",
    "evaluate_slos",
    "health_report",
    "render_dash",
    "sparkline",
    "load_health_report",
    "write_health_report",
    "HEALTH_SCHEMA",
]

#: Schema tag stamped on every health report.
HEALTH_SCHEMA = "raidp-health-v1"

#: Glyph ramp for terminal sparklines (deterministic, 8 levels).
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Series the per-phase breakdown always summarizes when present.
KEY_SERIES = (
    "disk_io_latency:p50",
    "disk_io_latency:p99",
    "disk_io_latency:count",
    "blocks_at_risk",
    "net_active_flows",
    "repair_bytes_total",
)


@dataclass(frozen=True)
class SloSpec:
    """One upper objective (``value <= objective``) over one time-series.

    ``mode="each"`` scores every sample in the window against the
    objective and burns the error budget by the out-of-objective
    fraction.  ``mode="final"`` scores only the last sample (cumulative
    budgets -- e.g. total repair bytes -- where intermediate values are
    by construction below the final one).
    """

    name: str
    series: str
    objective: float
    budget: float = 0.0  # allowed out-of-objective sample fraction
    mode: str = "each"  # "each" or "final"
    unit: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("each", "final"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.budget < 1.0:
            raise ValueError("budget must be a fraction in [0, 1)")

    def meets(self, value: float) -> bool:
        return value <= self.objective


@dataclass
class SloResult:
    """The verdict of one spec over one window."""

    spec: SloSpec
    samples: int
    breaches: int
    burn_rate: float
    ok: bool
    worst: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.spec.name,
            "series": self.spec.series,
            "objective": self.spec.objective,
            "comparison": "<=",  # the only one; kept for the report schema
            "budget": self.spec.budget,
            "mode": self.spec.mode,
            "unit": self.spec.unit,
            "samples": self.samples,
            "breaches": self.breaches,
            "burn_rate": self.burn_rate,
            "ok": self.ok,
            "worst": self.worst,
        }


def default_slos() -> Tuple[SloSpec, ...]:
    """The chaos recovery-storm defaults.

    Latency objectives come from the disk model's service-time scale
    (an uncontended I/O is ~5-20 ms; queueing under recovery pushes the
    tail); the at-risk objective allows a small budget because the
    recovery window legitimately exposes blocks until remirroring
    completes; the repair budget is a generous cumulative ceiling that
    flags runaway re-replication loops rather than normal repair.
    """
    gib = float(1 << 30)
    return (
        SloSpec(
            "disk-p50-latency", "disk_io_latency:p50", 0.05,
            budget=0.05, unit="s",
        ),
        SloSpec(
            "disk-p99-latency", "disk_io_latency:p99", 0.5,
            budget=0.05, unit="s",
        ),
        SloSpec(
            "blocks-at-risk", "blocks_at_risk", 0.0,
            budget=0.25,
        ),
        SloSpec(
            "repair-traffic", "repair_bytes_total", 64.0 * gib,
            mode="final", unit="B",
        ),
    )


def _window(
    points: Sequence[Tuple[float, float]], t0: Optional[float], t1: Optional[float]
) -> List[Tuple[float, float]]:
    return [
        (ts, value)
        for ts, value in points
        if (t0 is None or ts >= t0) and (t1 is None or ts <= t1)
    ]


def evaluate_slo(
    spec: SloSpec, points: Sequence[Tuple[float, float]]
) -> SloResult:
    """Score one spec over one window of ``(ts, value)`` samples."""
    values = [value for _ts, value in points]
    if not values:
        return SloResult(spec=spec, samples=0, breaches=0, burn_rate=0.0, ok=True)
    if spec.mode == "final":
        final = values[-1]
        ok = spec.meets(final)
        burn = (final / spec.objective) if spec.objective else (inf if not ok else 0.0)
        return SloResult(
            spec=spec, samples=len(values), breaches=0 if ok else 1,
            burn_rate=burn, ok=ok, worst=final,
        )
    breaches = sum(0 if spec.meets(value) else 1 for value in values)
    fraction = breaches / len(values)
    if spec.budget > 0.0:
        burn = fraction / spec.budget
    else:
        burn = 0.0 if breaches == 0 else inf
    return SloResult(
        spec=spec, samples=len(values), breaches=breaches,
        burn_rate=burn, ok=burn <= 1.0, worst=max(values),
    )


def evaluate_slos(
    store: Any,
    specs: Sequence[SloSpec],
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    run: Optional[int] = None,
) -> List[SloResult]:
    """Score every spec against one store window."""
    results = []
    for spec in specs:
        points = _window(store.series(spec.series, run=run), t0, t1)
        results.append(evaluate_slo(spec, points))
    return results


def _series_stats(points: Sequence[Tuple[float, float]]) -> Dict[str, Any]:
    values = [value for _ts, value in points]
    return {
        "samples": len(values),
        "min": min(values),
        "max": max(values),
        "mean": fsum(values) / len(values),
        "last": values[-1],
        "points": [[ts, value] for ts, value in points],
    }


def health_report(
    sampler: Any,
    auditor: Any,
    phases: Sequence[Tuple[str, float, float]],
    title: str,
    run: int,
) -> Dict[str, Any]:
    """One JSON-serializable verdict over run ``run`` of a sampled and
    audited soak, scored against :func:`default_slos`.

    ``phases`` are ``(name, t0, t1)`` windows (chaos passes pre-fault /
    fault / recovery / drain).  The report carries, per phase, summary
    statistics and the retained points of the key series (p50/p99 disk
    latency among them) plus SLO verdicts; globally, the audit summary
    and repair-GB accounting.  ``ok`` requires every overall SLO green
    and zero un-waived audit violations.
    """
    store = sampler.store
    specs = default_slos()
    phase_rows: List[Dict[str, Any]] = []
    for name, t0, t1 in phases:
        series: Dict[str, Any] = {}
        for key in KEY_SERIES:
            points = _window(store.series(key, run=run), t0, t1)
            if points:
                series[key] = _series_stats(points)
        phase_rows.append(
            {
                "phase": name,
                "t0": t0,
                "t1": t1,
                "series": series,
                "slos": [
                    r.as_dict() for r in evaluate_slos(store, specs, t0, t1, run)
                ],
            }
        )
    overall = evaluate_slos(store, specs, None, None, run)
    repair_points = store.series("repair_bytes_total", run=run)
    repair_bytes = repair_points[-1][1] if repair_points else 0.0
    audit_summary = auditor.summary()
    report: Dict[str, Any] = {
        "schema": HEALTH_SCHEMA,
        "title": title,
        "interval": sampler.interval,
        "samples": store.total_appended,
        "phases": phase_rows,
        "slos": [r.as_dict() for r in overall],
        "audit": audit_summary,
        "repair_bytes": repair_bytes,
        "repair_gb": repair_bytes / float(1 << 30),
        "ok": all(r.ok for r in overall) and audit_summary["unwaived"] == 0,
    }
    return report


def load_health_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as stream:
        report = json.load(stream)
    if report.get("schema") != HEALTH_SCHEMA:
        raise ValueError(f"unexpected health schema {report.get('schema')!r}")
    return report


def write_health_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")


# ---------------------------------------------------------------------------
# Terminal rendering (raidpctl dash).
# ---------------------------------------------------------------------------
def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Downsample ``values`` into ``width`` glyph buckets.

    Buckets average their samples (``fsum``, determinism) and the ramp
    normalizes min..max; a flat series renders as the lowest glyph.
    """
    if not values:
        return ""
    values = list(values)
    if len(values) > width:
        buckets = []
        for index in range(width):
            lo = index * len(values) // width
            hi = max(lo + 1, (index + 1) * len(values) // width)
            chunk = values[lo:hi]
            buckets.append(fsum(chunk) / len(chunk))
        values = buckets
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    ramp = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[int((value - low) / span * ramp + 0.5)] for value in values
    )


def _format_value(value: float, unit: str) -> str:
    if unit == "B":
        return f"{value / float(1 << 30):.2f} GiB"
    if unit == "s":
        if value < 0.1:
            return f"{value * 1000.0:.1f} ms"
        return f"{value:.3f} s"
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def _burn_label(burn: float) -> str:
    if burn == inf:
        return "inf"
    return f"{burn:.2f}"


def render_dash(report: Dict[str, Any], width: int = 40) -> str:
    """The ``raidpctl dash`` view: per-phase sparklines + SLO verdicts."""
    lines: List[str] = []
    title = report.get("title") or "cluster health"
    lines.append(f"=== {title} ===")
    lines.append(
        f"samples: {report.get('samples', 0)}  "
        f"interval: {report.get('interval')}s  "
        f"repair: {report.get('repair_gb', 0.0):.2f} GiB"
    )
    for phase in report.get("phases", []):
        t0 = phase.get("t0")
        t1 = phase.get("t1")
        window = (
            f"[{t0:.1f}s..{t1:.1f}s]"
            if t0 is not None and t1 is not None
            else "[all]"
        )
        lines.append("")
        lines.append(f"-- phase {phase['phase']} {window}")
        for key in KEY_SERIES:
            stats = phase.get("series", {}).get(key)
            if not stats or not stats.get("samples"):
                continue
            points = stats.get("points") or []
            spark = sparkline([p[1] for p in points], width=width)
            lines.append(
                f"  {key:<28} {spark}  "
                f"min {stats['min']:.4g}  max {stats['max']:.4g}"
            )
        breaches = [s for s in phase.get("slos", []) if not s["ok"]]
        if breaches:
            for slo in breaches:
                lines.append(
                    f"  !! {slo['name']}: burn {_burn_label(slo['burn_rate'])} "
                    f"({slo['breaches']}/{slo['samples']} samples over "
                    f"{slo['comparison']}{_format_value(slo['objective'], slo['unit'])})"
                )
    lines.append("")
    lines.append("-- SLO verdicts (whole run)")
    for slo in report.get("slos", []):
        mark = "ok " if slo["ok"] else "FAIL"
        worst = slo.get("worst")
        worst_label = (
            f"worst {_format_value(worst, slo['unit'])}" if worst is not None else ""
        )
        lines.append(
            f"  [{mark}] {slo['name']:<20} burn {_burn_label(slo['burn_rate']):>5}  "
            f"target {slo['comparison']}{_format_value(slo['objective'], slo['unit'])} "
            f"{worst_label}"
        )
    audit = report.get("audit")
    if audit is not None:
        waived = audit["violations"] - audit["unwaived"]
        lines.append(
            f"  audit: {audit['checks']} checks / {audit['audits']} audits, "
            f"{audit['violations']} violations ({waived} waived, "
            f"{audit['unwaived']} unwaived)"
        )
    lines.append("")
    lines.append(f"overall: {'HEALTHY' if report.get('ok') else 'UNHEALTHY'}")
    return "\n".join(lines)
