"""The six workloads: inputs from ``--seed``, one repetition, output checks.

Each workload is a fixed task list run closed-loop in one process with
``jobs=1``.  A repetition returns :class:`Outputs`: the simulated rows at
full precision (what ``result_digest`` hashes), the number of operations
attempted, and the operations that failed outright.  ``shape`` restates,
from ``benchmarks/test_*``, the orderings a correct model must keep.

``--seed`` reaches only generated inputs: the placement seed of the
experiment tasks, the chaos seeds ``100*S + i`` and the Monte-Carlo seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.analysis.montecarlo import DurabilityEngine, Fleet
from repro.experiments import (
    ext_scale,
    fig8_write,
    fig9_read,
    fig10_benchmarks,
    table2_recovery,
)
from repro.sim.stats import mean
from repro.tools.chaos import run_chaos

from bench.trace import Spans

#: (label, measured, paper value or None) -- ``ExperimentResult.rows``' shape.
Row = Tuple[str, float, Optional[float]]


@dataclass
class Outputs:
    """What one repetition produced."""

    rows: List[Row] = field(default_factory=list)
    #: Further simulated output hashed into the digest (chaos fingerprints).
    detail: Any = None
    ops: int = 0
    #: One line per operation that failed outright (raised, soak not PASS).
    failures: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, smoke, spans) -> Outputs; one closed-loop pass over the task list.
    repeat: Callable[[int, bool, Spans], Outputs]
    #: {label: measured} -> broken shape predicates (empty when the model holds).
    shape: Callable[[Dict[str, float]], List[str]]
    #: Rows whose paper values depend on the placement seed are scored on
    #: a reference pass at the working seed, so ``paper_err_pct`` compares
    #: commits, not seeds.  (``recovery`` rows do not move with the seed.)
    reference_pass: bool = False
    #: Labels of rows that may legitimately be <= 0 (deltas, 0/1 verdicts).
    signed: Callable[[str], bool] = lambda label: False


# ----------------------------------------------------------------------
# Experiment task lists (the ``tasks / task_deps / run_task / merge`` protocol).
# ----------------------------------------------------------------------
def _run_tasks(
    module: Any, keys: Sequence[Any], spans: Spans, out: Outputs
) -> Dict[Any, Any]:
    """Run ``keys`` in emission order, handing each its dependency results."""
    deps_of = getattr(module, "task_deps", lambda _key: ())
    values: Dict[Any, Any] = {}
    for key in keys:
        deps = {dep: values[dep] for dep in deps_of(key) if dep in values}
        out.ops += 1
        with spans.span(
            "run_task", module=module.__name__, key=repr(key),
            deps=[repr(dep) for dep in deps],
        ):
            try:
                values[key] = (
                    module.run_task(key, deps=deps) if deps else module.run_task(key)
                )
            except Exception as exc:  # a raised task is a failed operation
                out.failures.append(f"{module.__name__} {key!r} raised {exc!r}")
    return values


def _run_experiment(module: Any, seed: int, spans: Spans, out: Outputs) -> None:
    """Every task of ``module`` at placement seed ``seed``, merged into rows."""
    keys = module.tasks(seeds=(seed,))
    values = _run_tasks(module, keys, spans, out)
    if len(values) == len(keys):
        with spans.span("merge", module=module.__name__):
            out.rows.extend(module.merge(values, seeds=(seed,)).rows)


def _whole(module: Any) -> Callable[[int, bool, Spans], Outputs]:
    """The workload that is one whole experiment."""

    def repeat(seed: int, smoke: bool, spans: Spans) -> Outputs:
        out = Outputs()
        _run_experiment(module, seed, spans, out)
        return out

    return repeat


def _recovery(seed: int, smoke: bool, spans: Spans) -> Outputs:
    small, large = 4 * units.MiB, 64 * units.MiB

    def selected(key: Tuple) -> bool:
        if key[0] == "raidp":
            _kind, lock_mode, chunk, nic_index, _seed = key
            return nic_index == 0 or (lock_mode == "byte_range" and chunk == small)
        return key[1] == large and key[2] == 0  # RAID-6 64 MB @10G, both phases

    out = Outputs()
    keys = [k for k in table2_recovery.tasks(seeds=(seed,)) if selected(k)]
    values = _run_tasks(table2_recovery, keys, spans, out)
    # merge() needs all 24 tasks; the selected rows are labelled as it would.
    nics = ((0, "10Gbps"), (1, "1Gbps"))
    for lock_mode, chunk, *paper in table2_recovery.RAIDP_ROWS:
        for nic_index, nic in nics:
            key = ("raidp", lock_mode, chunk, nic_index, seed)
            if key in values:
                label = f"raidp {lock_mode} {chunk // units.MiB}MB @{nic}"
                out.rows.append((label, values[key], paper[nic_index]))
    for chunk, *paper in table2_recovery.RAID6_ROWS:
        for nic_index, nic in nics:
            key = ("raid6", chunk, nic_index, "write")
            if key in values:
                label = f"raid6 {chunk // units.MiB}MB @{nic}"
                out.rows.append((label, values[key], paper[nic_index]))
    return out


def _recovery_shape(rows: Dict[str, float]) -> List[str]:
    byte4 = rows["raidp byte_range 4MB @10Gbps"]
    sc4 = rows["raidp superchunk 4MB @10Gbps"]
    broken = []
    if not byte4 < sc4:
        broken.append("byte_range 4MB is not faster than superchunk 4MB @10Gbps")
    if not rows["raid6 64MB @10Gbps"] >= 5 * byte4:
        broken.append("RAID-6 rebuild is not >= 5x the RAIDP rebuild")
    if not rows["raidp byte_range 4MB @1Gbps"] > 3 * sc4:
        broken.append("the 1Gbps row is not network-bound (> 3x any 10Gbps row)")
    return broken


def _dfs_write_shape(rows: Dict[str, float]) -> List[str]:
    broken = []
    if not rows["hdfs 2 replicas"] < rows["raidp opt: +journal"] < rows["hdfs 3 replicas"]:
        broken.append("optimized RAIDP is not between hdfs-2 and hdfs-3")
    if not rows["raidp opt: only superchunks"] < rows["raidp opt: +lstor"]:
        broken.append("the Lstor adds no write cost")
    if not rows["raidp unopt: +journal"] > 10.0:
        broken.append("per-packet journal syncs are not off the chart (> 10x)")
    return broken


def _dfs_read(seed: int, smoke: bool, spans: Spans) -> Outputs:
    out = Outputs()
    _run_experiment(fig9_read, seed, spans, out)
    # Prefixed so the shape predicate can tell Fig. 9's ratios from Fig. 10's deltas.
    out.rows = [(f"fig9 {label}", measured, paper) for label, measured, paper in out.rows]
    _run_experiment(fig10_benchmarks, seed, spans, out)
    return out


def _dfs_read_shape(rows: Dict[str, float]) -> List[str]:
    broken = [
        f"{label} reads {value:.2f}x hdfs-3 (outside 0.8-1.2)"
        for label, value in rows.items()
        if label.startswith("fig9 ") and not 0.8 < value < 1.2
    ]
    if not abs(rows["write: network delta"] + 0.50) < 0.05:
        broken.append("RAIDP does not halve the write network volume")
    if not rows["write: runtime delta"] < 0.0:
        broken.append("RAIDP writes are not faster than hdfs-3")
    return broken


def _scale_out_shape(rows: Dict[str, float]) -> List[str]:
    broken = []
    for size in ext_scale.SIZES:
        if not rows[f"raidp net GB/node @{size}"] < 0.6 * rows[f"hdfs3 net GB/node @{size}"]:
            broken.append(f"RAIDP network per node is not ~half of hdfs-3's @{size}")
    recoveries = [rows[f"raidp recovery @{size}"] for size in ext_scale.SIZES]
    if not max(recoveries) < 1.5 * min(recoveries):
        broken.append("RAIDP recovery time is not flat in cluster size")
    return broken


# ----------------------------------------------------------------------
# Monte-Carlo durability and the chaos soak.
# ----------------------------------------------------------------------
#: (trials, chunks): the trials run as equal chunks, each a ``run(...,
#: first_trial=...)`` call timed on its own and merged with
#: ``SchemeReport.merge`` -- the same streams as one ``run(trials)``.
MC_TRIALS, MC_TRIALS_SMOKE = (100, 10), (8, 2)
MC_YEARS = 10.0
CHAOS_RUNS, CHAOS_RUNS_SMOKE = 12, 2


def _durability_mc(seed: int, smoke: bool, spans: Spans) -> Outputs:
    trials, chunks = MC_TRIALS_SMOKE if smoke else MC_TRIALS
    engine = DurabilityEngine(
        Fleet(num_racks=40, disks_per_rack=250, groups=1_000_000), seed=seed
    )
    out = Outputs(ops=trials)
    per_chunk = trials // chunks
    reports: Dict[str, Any] = {}
    for first in range(0, trials, per_chunk):
        with spans.span("DurabilityEngine.run", trials=per_chunk, first_trial=first):
            part = engine.run(per_chunk, years=MC_YEARS, first_trial=first)
        reports = {
            name: reports[name].merge(report) if reports else report
            for name, report in part.items()
        }
    for name, report in reports.items():
        for tally in (
            "expected_groups_lost", "repair_gb", "unavailable_group_hours",
            "at_risk_group_hours", "peak_groups_at_risk", "durability_nines",
        ):
            out.rows.append((f"{name}: {tally}", float(getattr(report, tally)), None))
    out.detail = {name: r.at_risk_timeline.tolist() for name, r in reports.items()}
    return out


def _durability_mc_shape(rows: Dict[str, float]) -> List[str]:
    rep2, raidp, rep3 = (
        rows[f"{name}: durability_nines"] for name in ("rep2", "raidp", "rep3")
    )
    if not rep2 < raidp < rep3:
        return ["durability is not ordered rep2 < raidp < rep3"]
    return []


def _chaos_soak(seed: int, smoke: bool, spans: Spans) -> Outputs:
    runs = CHAOS_RUNS_SMOKE if smoke else CHAOS_RUNS
    out = Outputs(ops=runs, detail=[])
    for index in range(1, runs + 1):
        chaos_seed = 100 * seed + index
        with spans.span("run_chaos", seed=chaos_seed):
            try:
                result = run_chaos(seed=chaos_seed)
            except Exception as exc:  # a raised soak is a failed operation
                out.failures.append(f"chaos seed={chaos_seed} raised {exc!r}")
                continue
        if not result.ok:
            out.failures.append(f"{result.summary()}: {result.problems[:3]}")
        out.detail.append(result.fingerprint)
        out.rows.append(
            (f"chaos {index}: blocks verified", len(result.fingerprint["blocks"]), None)
        )
    return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("recovery", _recovery, _recovery_shape),
        Workload("dfs_write", _whole(fig8_write), _dfs_write_shape, reference_pass=True),
        Workload(
            "dfs_read", _dfs_read, _dfs_read_shape, reference_pass=True,
            signed=lambda label: label.endswith("delta"),
        ),
        Workload(
            "scale_out", _whole(ext_scale), _scale_out_shape,
            signed=lambda label: "SLO ok" in label,
        ),
        Workload(
            "durability_mc", _durability_mc, _durability_mc_shape,
            signed=lambda label: not label.endswith(("durability_nines", "repair_gb")),
        ),
        Workload("chaos_soak", _chaos_soak, lambda rows: []),
    )
}


def paper_err_pct(rows: Sequence[Row]) -> Optional[float]:
    """Mean |measured - paper| / |paper| x 100 over the rows with a paper value.

    Fig. 10 prints ``raidp/hdfs3 - 1``; those rows are scored as the ratio
    they stand for (a paper delta of 0.00 is a ratio of 1.00, not a
    division by zero).  ``None`` when the workload reproduces no paper row.
    """
    errors = []
    for label, measured, paper in rows:
        if paper is None:
            continue
        if label.endswith("delta"):
            measured, paper = measured + 1.0, paper + 1.0
        errors.append(abs(measured - paper) / abs(paper) * 100.0)
    return mean(errors) if errors else None


def row_problems(workload: Workload, rows: Sequence[Row]) -> List[str]:
    """Rows that are not finite, or not positive where they must be."""
    problems = []
    for label, measured, _paper in rows:
        if not math.isfinite(measured):
            problems.append(f"row {label!r} is not finite: {measured!r}")
        elif measured <= 0 and not workload.signed(label):
            problems.append(f"row {label!r} is not positive: {measured!r}")
    return problems
