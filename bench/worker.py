"""One workload, in this process: set-up, warm-up, timed repetitions, checks.

The parent (:mod:`bench.runner`) starts this module in a fresh
interpreter per workload.  Time line of one run::

    process start
      | imports, host-speed probe
      | reference pass at the working seed   (only dfs_write / dfs_read, seed != 1)
      | warm-up repetition                   (fills snapshot stores, lazy imports)
      v                                      --- setup_s ends here ---
    timed repetitions  (>= MIN_REPS, until --seconds is used up)   -> wall_s
    traced run only: one repetition under spans + simprofile, then the kernels

The sandbox is a slice of a shared host that slows by 10-40 % for spells
of a fraction of a second to minutes, so an untraced run reads
``kernels.host_level`` between tasks (:class:`HostProbe`) and reports both
times at quiet-host speed: ``wall_s`` is :func:`quiet_wall_s`, not the
median repetition, and ``setup_s`` is divided by the set-up's median
level.  The measured seconds (median, min, max, n of the whole
repetitions, the measured set-up) are reported beside them.

A traced run times a single untraced repetition (the baseline of
``trace.overhead_pct``) before its traced one; its end-to-end numbers
have n=1 and are not used for claims.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import WORKING_SEED
from bench.kernels import CALIB_DRIFT, calibrate, host_level, run_kernels
from bench.trace import Spans, duration, install, layer_metrics
from bench.workloads import WORKLOADS, Outputs, paper_err_pct, row_problems

#: Fewest timed repetitions of a full-scale run, whatever ``--seconds`` says.
MIN_REPS = 3

#: Span name of one host-level reading, and the least time between two.
PROBE = "host_probe"
PROBE_EVERY_S = 0.1


def digest(out: Outputs) -> str:
    """sha256 over every simulated output at full precision."""
    canonical = json.dumps(
        {
            "rows": [(label, float(measured).hex()) for label, measured, _p in out.rows],
            "detail": out.detail,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class HostProbe:
    """Reads ``host_level()`` into ``host_probe`` spans: when a repetition
    starts and after its tasks, at most every :data:`PROBE_EVERY_S`."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self._last = 0.0
        spans.after_task = self.read

    def read(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._last = float("inf")  # the probe span's own end calls back here
            with self.spans.span(PROBE) as record:
                record["level"] = host_level()
            self._last = time.perf_counter()


def levels_since(spans: Spans, first: Dict[str, Any]) -> float:
    """Median host level read since span ``first`` began (1.0 if never read)."""
    return statistics.median(
        [s["level"] for s in spans.records[first["id"]:] if s["name"] == PROBE] or [1.0]
    )


def pass_times(spans: Spans, top: Dict[str, Any]) -> Tuple[float, List[float]]:
    """One pass over the task list (the warm-up or a repetition): its host
    seconds, and the host seconds of each task (``run_task``, ``merge``, one
    soak, one Monte-Carlo chunk; last, the task loop's own remainder).
    Probe time is in neither."""
    children = [s for s in spans.within(top) if s["parent"] == top["id"]]
    tasks = [duration(s) for s in children if s["name"] != PROBE]
    total = duration(top) - sum(duration(s) for s in children if s["name"] == PROBE)
    return total, tasks + [total - sum(tasks)]


def quiet_wall_s(units: Sequence[Sequence[float]], level: float) -> float:
    """``wall_s``: what one repetition costs when the host is quiet.

    Contention on the shared host only ever adds time.  A burst shorter
    than a pass rarely hits the same task in every pass, so every task
    contributes its fastest time among the k+1 passes; a spell longer than
    the run slows all of them, so the sum is divided by the run's median
    host level.  On the same inputs it repeats up to four times closer
    than the median repetition does (numbers in ``baseline/README.md``).
    """
    if len({len(row) for row in units}) != 1:  # a failed pass skipped its merge
        return min(sum(row) for row in units) / level
    return sum(min(column) for column in zip(*units)) / level


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    spawned_at: float,
) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    spans = Spans(name)
    calib_before = calibrate()
    uninstall = install(spans) if traced else None
    probe = None if traced else HostProbe(spans)

    def one_pass(label: str, at_seed: int, **attrs: Any) -> Tuple[Dict[str, Any], Outputs]:
        with spans.span(label, **attrs) as record:
            if probe is not None:
                probe.read(force=True)
            out = workload.repeat(at_seed, smoke, spans)
        return record, out

    # -- set-up -----------------------------------------------------------
    setup_spans = []
    reference: Optional[Outputs] = None
    if workload.reference_pass and seed != WORKING_SEED:
        record, reference = one_pass("reference_pass", WORKING_SEED, seed=WORKING_SEED)
        setup_spans.append(record)
    warmup, warm = one_pass("warmup", seed, seed=seed)
    setup_spans.append(warmup)
    warm_digest = digest(warm)
    setup_measured_s = time.time() - spawned_at
    setup_level = levels_since(spans, setup_spans[0])

    # -- timed repetitions --------------------------------------------------
    min_reps = 1 if (smoke or traced) else MIN_REPS
    budget = 0.0 if (smoke or traced) else seconds
    samples: List[float] = []
    # The warm-up ran the same task list: where the host was quiet for
    # one of its tasks and for none of the timed ones, that time counts.
    units = [pass_times(spans, warmup)[1]]
    ops = 0
    problems: List[str] = []
    loop_start = time.perf_counter()
    while True:
        gc.collect()
        record, out = one_pass("repetition", seed, index=len(samples))
        total, task_s = pass_times(spans, record)
        samples.append(total)
        units.append(task_s)
        ops += out.ops
        problems.extend(out.failures)
        problems.extend(row_problems(workload, out.rows))
        if digest(out) != warm_digest:
            problems.append(f"repetition {len(samples) - 1}: digest differs from the warm-up's")
        used = time.perf_counter() - loop_start
        if len(samples) >= min_reps and used + statistics.median(samples) > budget:
            break
    run_level = levels_since(spans, warmup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- traced repetition + kernel pass -----------------------------------
    layers: Optional[Dict[str, float]] = None
    if uninstall is not None:
        from repro.obs import simprofile

        gc.collect()
        with simprofile.capture() as profiler:
            with spans.span("repetition", index=len(samples), traced=True) as traced_rep:
                out = workload.repeat(seed, smoke, spans)
        uninstall()
        if digest(out) != warm_digest:
            problems.append("traced repetition: digest differs from the warm-up's")
        layers = layer_metrics(spans, setup_spans, traced_rep, samples[-1], profiler)
        layers.update(run_kernels(samples=1 if smoke else 5))
    calib_after = calibrate()
    if layers is not None:
        layers["harness.calib_s"] = statistics.median((calib_before, calib_after))

    # -- fidelity: paper error and shape, on seed-independent rows ----------
    scored = warm
    if reference is not None:
        scored = reference
        problems.extend(reference.failures)
    rows = {label: measured for label, measured, _paper in scored.rows}
    if not scored.failures:
        problems.extend(f"shape: {line}" for line in workload.shape(rows))

    metrics: Dict[str, Dict[str, Any]] = {
        "wall_s": {
            "value": quiet_wall_s(units, run_level), "unit": "s",
            "host_level": run_level, "median": statistics.median(samples),
            "min": min(samples), "max": max(samples), "n": len(samples),
        },
        "setup_s": {
            "value": setup_measured_s / setup_level, "unit": "s",
            "measured": setup_measured_s, "host_level": setup_level,
        },
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }
    err = paper_err_pct(scored.rows)
    if err is not None:
        metrics["paper_err_pct"] = {"value": err, "unit": "%"}

    result = {
        "workload": name,
        "seed": seed,
        "k": len(samples),
        # task_s: the warm-up first, then the timed repetitions.
        "samples": {"wall_s": samples, "task_s": units},
        "metrics": metrics,
        "ops": ops,
        "ops_failed": len(problems),
        "problems": problems,
        "result_digest": warm_digest,
        "rows": [(label, measured) for label, measured, _paper in warm.rows],
        "calib": {"before": calib_before, "after": calib_after},
        "noisy": abs(calib_after - calib_before) / calib_before > CALIB_DRIFT,
    }
    if layers is not None:
        result["layers"] = layers
        result["spans"] = spans.records
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench _worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        args.spawned_at if args.spawned_at is not None else time.time(),
    )
    print(json.dumps(result))
    return 1 if result["ops_failed"] else 0
