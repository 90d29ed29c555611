"""Trace export (Chrome/Perfetto) and phase summarisation.

:func:`write_trace` writes the Chrome trace format (the JSON object
flavour with ``traceEvents``), loadable in Perfetto /
``chrome://tracing``, whatever the file's extension.  Timestamps are
scaled to microseconds as the format requires; ``pid`` is the simulator
run index and ``tid`` is a per-category track.  A tracer's non-empty
``metadata`` becomes the top-level ``otherData``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import TraceEvent, Tracer

__all__ = [
    "write_trace",
    "load_trace",
    "summarize",
    "recovery_breakdown",
    "render_summary",
]

#: Chrome trace timestamps are microseconds.
_US = 1e6


def _events_of(source: Any) -> List[TraceEvent]:
    if isinstance(source, Tracer):
        return source.events
    return list(source)


def write_trace(source: Any, path: str) -> int:
    """Write Chrome trace JSON; returns the event count."""
    events = _events_of(source)
    categories = sorted({event.category for event in events})
    tids = {category: index + 1 for index, category in enumerate(categories)}
    runs = sorted({event.run for event in events})
    records: List[Dict[str, Any]] = []
    labels: Tuple[str, ...] = ()
    if isinstance(source, Tracer):
        labels = source.run_labels
    for run in runs:
        label = labels[run] if run < len(labels) else f"run-{run}"
        records.append(
            {
                "ph": "M",
                "pid": run,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"sim {label}"},
            }
        )
        for category, tid in tids.items():
            records.append(
                {
                    "ph": "M",
                    "pid": run,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": category},
                }
            )
    for event in events:
        record: Dict[str, Any] = {
            "ph": event.phase,
            "pid": event.run,
            "tid": tids[event.category],
            "cat": event.category,
            "name": event.name,
            "ts": event.ts * _US,
        }
        if event.phase == "X":
            record["dur"] = event.dur * _US
        elif event.phase == "i":
            record["s"] = "t"  # thread-scoped instant
        if event.attrs:
            record["args"] = event.attrs
        records.append(record)
    payload: Dict[str, Any] = {"traceEvents": records, "displayTimeUnit": "ms"}
    if isinstance(source, Tracer) and source.metadata:
        payload["otherData"] = source.metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return len(events)


def load_trace(path: str) -> Tuple[List[TraceEvent], Dict[str, Any]]:
    """Read a Chrome trace back: its :class:`TraceEvent` records
    (timestamps rescaled to seconds, metadata events dropped) and its
    ``otherData`` (``{}`` when it has none)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        payload = {"traceEvents": payload}
    records = payload["traceEvents"]
    events: List[TraceEvent] = []
    scale = 1.0 / _US
    for seq, record in enumerate(records):
        phase = record.get("ph", "X")
        if phase == "M":
            continue
        events.append(
            TraceEvent(
                int(record.get("pid", 0)),
                seq,
                phase,
                record.get("cat", ""),
                record.get("name", ""),
                float(record.get("ts", 0.0)) * scale,
                float(record.get("dur", 0.0)) * scale,
                record.get("args") or None,
            )
        )
    return events, payload.get("otherData", {})


def _union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly-overlapping intervals."""
    ordered = sorted(intervals)
    covered = 0.0
    cursor = float("-inf")
    for start, end in ordered:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


def summarize(events: List[TraceEvent]) -> Dict[str, Dict[str, Any]]:
    """Aggregate per ``category.name``: span counts/durations, instants."""
    table: Dict[str, Dict[str, Any]] = {}
    for event in events:
        key = f"{event.category}.{event.name}"
        row = table.get(key)
        if row is None:
            row = table[key] = {
                "phase": event.phase,
                "count": 0,
                "total_s": 0.0,
                "max_s": 0.0,
            }
        row["count"] += 1
        if event.phase == "X":
            row["total_s"] += event.dur
            row["max_s"] = max(row["max_s"], event.dur)
    return dict(sorted(table.items()))


#: The whole-recovery span, and the phase spans that count as its children.
_RECOVERY_SPAN = "recover"
_RECOVERY_PHASES = ("plan", "reconstruct", "remirror", "install")


def recovery_breakdown(events: List[TraceEvent]) -> List[Dict[str, Any]]:
    """Per-recovery phase decomposition with per-superchunk rows.

    For every whole-recovery span (``recovery.recover``, one per dead
    set, tagged ``dead=``) returns its child phase spans that fall inside
    its window, both as a straight sum (cost) and as a union of
    intervals (wall-clock coverage -- phases run in parallel across
    superchunks).  ``coverage`` near 1.0 means the phases account for
    the whole reported recovery time.
    """
    recoveries = [
        event
        for event in events
        if event.phase == "X"
        and event.category == "recovery"
        and event.name == _RECOVERY_SPAN
    ]
    phase_spans = [
        event
        for event in events
        if event.phase == "X"
        and event.category == "recovery"
        and event.name in _RECOVERY_PHASES
    ]
    out: List[Dict[str, Any]] = []
    eps = 1e-9
    for parent in recoveries:
        children = [
            span
            for span in phase_spans
            if span.run == parent.run
            and span.ts >= parent.ts - eps
            and span.end <= parent.end + eps
        ]
        phases: Dict[str, Dict[str, Any]] = {}
        rows: List[Dict[str, Any]] = []
        for span in children:
            phase = phases.setdefault(
                span.name, {"count": 0, "sum_s": 0.0, "intervals": []}
            )
            phase["count"] += 1
            phase["sum_s"] += span.dur
            phase["intervals"].append((span.ts, span.end))
            if span.attrs and "sc" in span.attrs:
                rows.append(
                    {
                        "phase": span.name,
                        "sc": span.attrs.get("sc"),
                        "start_s": span.ts - parent.ts,
                        "dur_s": span.dur,
                        "attrs": span.attrs,
                    }
                )
        for phase in phases.values():
            phase["union_s"] = _union_seconds(phase.pop("intervals"))
        union_all = _union_seconds((span.ts, span.end) for span in children)
        rows.sort(key=lambda row: (row["start_s"], str(row["sc"])))
        out.append(
            {
                "run": parent.run,
                "attrs": parent.attrs or {},
                "start_s": parent.ts,
                "total_s": parent.dur,
                "phase_sum_s": sum(phase["sum_s"] for phase in phases.values()),
                "phase_union_s": union_all,
                "coverage": (union_all / parent.dur) if parent.dur > 0 else 1.0,
                "phases": dict(sorted(phases.items())),
                "superchunks": rows,
            }
        )
    return out


def render_summary(
    events: List[TraceEvent],
    category: Optional[str] = None,
    limit: int = 0,
) -> str:
    """Human-readable phase summary plus recovery breakdowns."""
    if category is not None:
        events = [event for event in events if event.category == category]
    lines: List[str] = []
    table = summarize(events)
    if not table:
        return "(no events)"
    width = max(len(key) for key in table)
    lines.append(f"{'event':<{width}}  {'count':>8}  {'total s':>12}  {'max s':>10}")
    lines.append("-" * (width + 36))
    for key, row in table.items():
        if row["phase"] == "X":
            lines.append(
                f"{key:<{width}}  {row['count']:>8}  {row['total_s']:>12.3f}  "
                f"{row['max_s']:>10.3f}"
            )
        else:
            lines.append(f"{key:<{width}}  {row['count']:>8}  {'-':>12}  {'-':>10}")
    breakdowns = recovery_breakdown(events)
    for item in breakdowns:
        lines.append("")
        attrs = ", ".join(f"{k}={v}" for k, v in item["attrs"].items())
        lines.append(
            f"recovery run={item['run']} {attrs}".rstrip()
        )
        lines.append(
            f"  total {item['total_s']:.3f} s | phase sum {item['phase_sum_s']:.3f} s"
            f" | phase union {item['phase_union_s']:.3f} s"
            f" | coverage {item['coverage'] * 100.0:.1f}%"
        )
        for name, phase in item["phases"].items():
            lines.append(
                f"  {name:<12} x{phase['count']:<4} sum {phase['sum_s']:.3f} s"
                f"  union {phase['union_s']:.3f} s"
            )
        rows = item["superchunks"]
        if limit:
            rows = rows[:limit]
        for row in rows:
            extra = row["attrs"]
            detail = ", ".join(
                f"{k}={v}" for k, v in extra.items() if k not in ("sc",)
            )
            lines.append(
                f"    sc={row['sc']} {row['phase']} +{row['start_s']:.3f}s "
                f"dur {row['dur_s']:.3f}s {detail}".rstrip()
            )
        if limit and len(item["superchunks"]) > limit:
            lines.append(
                f"    ... {len(item['superchunks']) - limit} more superchunk rows"
            )
    return "\n".join(lines)
