"""Fig. 8: TestDFSIO write performance across every RAIDP configuration.

Eleven bars: RAIDP optimized x {only superchunks, +lstor, +journal},
RAIDP unoptimized x the same three, RAIDP re-write (update-oriented)
optimized x the same three, plus HDFS-2 and HDFS-3.  Reported as runtime
relative to HDFS-3 (the paper prints these ratios above its bars).
"""

from __future__ import annotations

from repro.sim.stats import mean
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    DEFAULT_SEEDS,
    build_hdfs,
    build_raidp,
    pick_scale,
)
from repro.experiments.parallel import fan_out
from repro.experiments.runner import ExperimentResult
from repro.workloads.dfsio import dfsio_write

#: (label, raidp kwargs, paper's relative runtime).
OPTIMIZED_BARS = [
    ("raidp opt: only superchunks", dict(enable_parity=False, enable_journal=False), 0.63),
    ("raidp opt: +lstor", dict(enable_parity=True, enable_journal=False), 0.71),
    ("raidp opt: +journal", dict(), 0.78),
]
UNOPTIMIZED_BARS = [
    (
        "raidp unopt: only superchunks",
        dict(optimized=False, enable_parity=False, enable_journal=False),
        1.67,
    ),
    (
        "raidp unopt: +lstor",
        dict(optimized=False, enable_parity=True, enable_journal=False),
        1.78,
    ),
    ("raidp unopt: +journal", dict(optimized=False), 22.04),
]
REWRITE_BARS = [
    (
        "raidp re-write: only superchunks",
        dict(update_oriented=True, enable_parity=False, enable_journal=False),
        0.64,
    ),
    (
        "raidp re-write: +lstor",
        dict(update_oriented=True, enable_parity=True, enable_journal=False),
        1.14,
    ),
    ("raidp re-write: +journal", dict(update_oriented=True), 1.21),
]


#: label -> raidp kwargs for every bar (including the unoptimized family).
_BAR_KWARGS = {
    label: kwargs
    for label, kwargs, _paper in OPTIMIZED_BARS + REWRITE_BARS + UNOPTIMIZED_BARS
}

#: Task key: (system, spec, dataset kind, placement seed).  ``system`` is
#: "hdfs" (spec = replication factor) or "raidp" (spec = bar label);
#: ``dataset kind`` selects the full or the reduced (per-packet) dataset.
TaskKey = Tuple[str, Hashable, str, int]


def tasks(full_scale: bool = False, seeds: Sequence[int] = DEFAULT_SEEDS) -> List[TaskKey]:
    """Independent sweep cells, one simulated cluster run each."""
    keys: List[TaskKey] = []
    for seed in seeds:
        keys.append(("hdfs", 3, "full", seed))
        keys.append(("hdfs", 2, "full", seed))
        for label, _kwargs, _paper in OPTIMIZED_BARS + REWRITE_BARS:
            keys.append(("raidp", label, "full", seed))
        # The unoptimized family simulates every 64 KB packet; it runs on
        # a reduced dataset against its own HDFS-3 reference (ratios are
        # scale-stable because both sides are throughput-bound).
        keys.append(("hdfs", 3, "small", seed))
        for label, _kwargs, _paper in UNOPTIMIZED_BARS:
            keys.append(("raidp", label, "small", seed))
    return keys


def run_task(key: TaskKey, full_scale: bool = False) -> float:
    """One cell: build the cluster for ``key``'s seed and time the write."""
    system, spec, dataset_kind, seed = key
    scale = pick_scale(full_scale)
    dataset = scale.dataset if dataset_kind == "full" else scale.unoptimized_dataset
    if system == "hdfs":
        dfs = build_hdfs(int(spec), scale, seed)
    else:
        dfs = build_raidp(scale, seed, **_BAR_KWARGS[spec])
    return dfsio_write(dfs, dataset).runtime


def merge(
    keyed: Dict[TaskKey, float],
    full_scale: bool = False,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> ExperimentResult:
    """Average cells across seeds and emit rows in the paper's bar order."""
    result = ExperimentResult(
        experiment="fig8",
        title="TestDFSIO write runtime relative to HDFS-3",
        unit="runtime / HDFS-3 runtime",
    )

    def avg(system: str, spec: Hashable, dataset_kind: str) -> float:
        return mean(keyed[(system, spec, dataset_kind, seed)] for seed in seeds)

    baseline = avg("hdfs", 3, "full")
    result.add("hdfs 2 replicas", avg("hdfs", 2, "full") / baseline, 0.68)
    result.add("hdfs 3 replicas", 1.0, 1.0)
    for label, _kwargs, paper in OPTIMIZED_BARS + REWRITE_BARS:
        result.add(label, avg("raidp", label, "full") / baseline, paper)
    small_baseline = avg("hdfs", 3, "small")
    for label, _kwargs, paper in UNOPTIMIZED_BARS:
        result.add(label, avg("raidp", label, "small") / small_baseline, paper)
    result.notes = (
        "expected shape: optimized raidp between hdfs-2 and hdfs-3 with "
        "small +lstor/+journal increments; re-write ~1.2x hdfs-3; "
        "unoptimized +journal off the chart"
    )
    return result


def run(
    full_scale: bool = False,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    keyed = fan_out(__name__, full_scale=full_scale, seeds=seeds, jobs=jobs)
    return merge(keyed, full_scale=full_scale, seeds=seeds)
