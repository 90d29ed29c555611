"""``python -m repro.tools.profile`` -- hot-path profiling for experiments.

Runs an experiment (or a slice of its task pipeline) under the
deterministic simulation profiler (:mod:`repro.obs.simprofile`) and
prints the ranked "top hot paths" table: dispatched events, simulated
seconds, and wall-clock seconds attributed to process/callsite buckets
keyed by the :mod:`repro.obs.taxonomy` categories.  This is the
measurement tool that every perf PR starts from -- the committed
hot-path table in DESIGN.md section 12 is this program's output.

Usage::

    python -m repro.tools.profile table2               # full experiment
    python -m repro.tools.profile table2 --tasks 2     # first 2 tasks only
    python -m repro.tools.profile fig8 --limit 25      # longer report
    python -m repro.tools.profile table2 --json p.json # machine-readable

Also exposed as ``raidpctl profile``.  The event counts and simulated
seconds are exactly reproducible run-to-run (profiling never perturbs
the schedule); wall-clock samples are host measurements and vary, but
the ranking is stable for any meaningfully hot path.  For
function-granularity wall time, run the experiment under the
interpreter's own profiler:
``python -m cProfile -s tottime -m repro.experiments table2``.

The JSON export follows the repo's report conventions (a ``schema``
version plus sorted keys, like :mod:`repro.lint` findings); this module
is allow-listed for the ``RDP001`` wall-clock rule because a profiler
exists to read the host clock.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.experiments.runner import REGISTRY
from repro.obs import simprofile
from repro.obs.metrics import SWITCH_WORK_COUNTERS
from repro.sim.network import Switch

#: JSON output schema version (bump on breaking shape changes).
JSON_SCHEMA_VERSION = 2

#: Default number of ranked buckets printed.
DEFAULT_LIMIT = 15


def _experiment_module(name: str) -> Any:
    if name not in REGISTRY:
        raise SystemExit(
            f"unknown experiment {name!r}; known: {sorted(REGISTRY)}"
        )
    module_name, _title = REGISTRY[name]
    return importlib.import_module(module_name)


def run_slice(
    name: str, max_tasks: Optional[int] = None, full_scale: bool = False
) -> Tuple[int, float]:
    """Run an experiment (or its first ``max_tasks`` tasks) in-process.

    Uses the experiment's task protocol (``tasks``/``run_task``) when it
    has one, so a slice exercises the same per-task code paths the
    parallel runner does; experiments without the protocol always run
    whole.  Everything runs here at one job whatever ``RAIDP_JOBS``
    says: work in pool workers is invisible to the profiler.  Returns
    (tasks_run, wall_seconds), with -1 tasks for a whole run.
    """
    module = _experiment_module(name)
    start = time.perf_counter()
    if not hasattr(module, "tasks"):
        module.run(full_scale=full_scale)
        return (-1, time.perf_counter() - start)
    keys = module.tasks(full_scale=full_scale)[:max_tasks]
    for key in keys:
        module.run_task(key, full_scale=full_scale)
    return (-1 if max_tasks is None else len(keys), time.perf_counter() - start)


# ----------------------------------------------------------------------
# Reports.
# ----------------------------------------------------------------------
def render_report(
    profiler: simprofile.SimProfiler,
    title: str,
    limit: int = DEFAULT_LIMIT,
    wall_seconds: Optional[float] = None,
) -> str:
    """The ranked hot-path table, hottest (wall-clock) first."""
    ranked = profiler.ranked()
    totals = profiler.totals()
    total_wall = totals["wall_seconds"] or 1.0
    lines = [f"top hot paths: {title}"]
    lines.append(
        f"{totals['events']:,} events dispatched, "
        f"{totals['sim_seconds']:,.1f} simulated seconds, "
        f"{totals['wall_seconds']:.2f}s wall in dispatch"
        + (f" ({wall_seconds:.2f}s total)" if wall_seconds is not None else "")
    )
    header = (
        f"{'#':>3}  {'category':<10} {'callsite':<44} "
        f"{'events':>10} {'sim s':>10} {'wall s':>8} {'wall %':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for rank, bucket in enumerate(ranked[:limit], start=1):
        lines.append(
            f"{rank:>3}  {bucket.category:<10} {bucket.callsite:<44} "
            f"{bucket.events:>10,} {bucket.sim_seconds:>10.1f} "
            f"{bucket.wall_seconds:>8.3f} "
            f"{bucket.wall_seconds / total_wall * 100:>6.1f}%"
        )
    if len(ranked) > limit:
        rest_wall = sum(b.wall_seconds for b in ranked[limit:])
        lines.append(
            f"     ... {len(ranked) - limit} more buckets "
            f"({rest_wall / total_wall * 100:.1f}% of wall)"
        )
    lines.append(work_line(profiler))
    return "\n".join(lines)


def switch_work(profiler: simprofile.SimProfiler) -> Dict[str, int]:
    """The run's exact network work: counters summed over its switches.

    Wall shares move with the host; these repeat exactly, so two reports
    can be compared by them even when their wall columns cannot.
    """
    switches = [
        owner for owner in profiler.hook_owners.values() if isinstance(owner, Switch)
    ]
    return {
        name: sum(getattr(switch, attribute) for switch in switches)
        for name, attribute in SWITCH_WORK_COUNTERS.items()
    }


def work_line(profiler: simprofile.SimProfiler) -> str:
    """The report footer: solves, deadline pushes and idle timer fires."""
    work = switch_work(profiler)
    return "work: " + ", ".join(
        f"{name}={work[name]:,}"
        for name in (
            "net_solves_total",
            "net_deadline_pushes_total",
            "net_timer_idle_total",
        )
    )


def report_dict(
    profiler: simprofile.SimProfiler,
    experiment: str,
    tasks_run: int,
    wall_seconds: float,
) -> Dict[str, Any]:
    """The JSON-exportable report (schema-versioned)."""
    return {
        "schema": JSON_SCHEMA_VERSION,
        "experiment": experiment,
        "tasks": tasks_run,
        "wall_seconds": round(wall_seconds, 3),
        "totals": profiler.totals(),
        "work": switch_work(profiler),
        "buckets": [bucket.as_dict() for bucket in profiler.ranked()],
    }


def markdown_table(profiler: simprofile.SimProfiler, limit: int = 10) -> str:
    """Top buckets as a GitHub-flavoured markdown table (CI job summary)."""
    totals = profiler.totals()
    total_wall = totals["wall_seconds"] or 1.0
    lines = [
        "| # | category | callsite | events | sim s | wall % |",
        "| ---: | --- | --- | ---: | ---: | ---: |",
    ]
    for rank, bucket in enumerate(profiler.ranked()[:limit], start=1):
        lines.append(
            f"| {rank} | {bucket.category} | `{bucket.callsite}` "
            f"| {bucket.events:,} | {bucket.sim_seconds:,.1f} "
            f"| {bucket.wall_seconds / total_wall * 100:.1f}% |"
        )
    return "\n".join(lines)


def _write_step_summary(title: str, table: str) -> None:
    """Append the markdown table to ``GITHUB_STEP_SUMMARY`` when set."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    with open(summary_path, "a", encoding="utf-8") as fh:
        fh.write(f"### {title}\n\n{table}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.profile",
        description="Profile an experiment's simulation hot paths "
        "(deterministic event/sim-time attribution plus wall sampling).",
    )
    parser.add_argument("experiment", help=f"one of: {', '.join(sorted(REGISTRY))}")
    parser.add_argument(
        "--tasks",
        type=int,
        default=None,
        metavar="N",
        help="run only the first N tasks of the experiment's pipeline "
        "(default: the whole experiment)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_LIMIT,
        metavar="N",
        help=f"ranked rows to print (default {DEFAULT_LIMIT})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full report as schema-versioned JSON",
    )
    parser.add_argument(
        "--full", action="store_true", help="profile at paper scale (slow)"
    )
    args = parser.parse_args(argv)
    if args.experiment not in REGISTRY:
        parser.error(
            f"unknown experiment {args.experiment!r}; known: {sorted(REGISTRY)}"
        )

    with simprofile.capture() as profiler:
        tasks_run, wall = run_slice(args.experiment, args.tasks, args.full)
    slice_label = (
        args.experiment
        if tasks_run < 0
        else f"{args.experiment} (first {tasks_run} task(s))"
    )
    print(render_report(profiler, slice_label, limit=args.limit, wall_seconds=wall))
    if args.json:
        payload = report_dict(profiler, args.experiment, tasks_run, wall)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json} ({len(payload['buckets'])} buckets)")
    _write_step_summary(
        f"hot paths: {slice_label}",
        f"{markdown_table(profiler, limit=10)}\n\n`{work_line(profiler)}`",
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - module shim
    sys.exit(main())
