"""Fig. 9: TestDFSIO read performance.

Reads back the data written by the Fig. 8 configurations.  The paper's
headline: every configuration reads at essentially the same speed
(relative runtimes 0.96-1.03), because reads must follow whatever layout
writing produced and the replica choice is uniform.
"""

from __future__ import annotations

from repro.sim.stats import mean
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.experiments.common import (
    DEFAULT_SEEDS,
    build_hdfs_written,
    build_raidp_written,
    pick_scale,
)
from repro.experiments.runner import ExperimentResult
from repro.workloads.dfsio import dfsio_read

#: (label, raidp kwargs or replication, paper's relative read runtime).
BARS = [
    ("raidp opt: only superchunks", dict(enable_parity=False, enable_journal=False), 0.99),
    ("raidp opt: +lstor", dict(enable_parity=True, enable_journal=False), 1.00),
    ("raidp opt: +journal", dict(), 1.03),
    ("raidp re-write: +journal", dict(update_oriented=True), 0.98),
]


_BAR_KWARGS = {label: kwargs for label, kwargs, _paper in BARS}

#: Task key: (system, spec, placement seed).
TaskKey = Tuple[str, Hashable, int]


def tasks(full_scale: bool = False, seeds: Sequence[int] = DEFAULT_SEEDS) -> List[TaskKey]:
    keys: List[TaskKey] = []
    for seed in seeds:
        keys.append(("hdfs", 3, seed))
        keys.append(("hdfs", 2, seed))
        for label, _kwargs, _paper in BARS:
            keys.append(("raidp", label, seed))
    return keys


def run_task(key: TaskKey, full_scale: bool = False) -> float:
    """One cell: time reading back the written dataset.

    The write warmup is phase-memoized: the cluster is restored at the
    post-``dfsio_write`` boundary (simulated once per configuration and
    seed), which is bitwise-identical to writing inline -- pinned by
    ``tests/test_snapshot_warmstart.py``.
    """
    system, spec, seed = key
    scale = pick_scale(full_scale)
    if system == "hdfs":
        dfs = build_hdfs_written(int(spec), scale, seed)
    else:
        dfs = build_raidp_written(scale, seed, **_BAR_KWARGS[spec])
    return dfsio_read(dfs).runtime


def merge(
    keyed: Dict[TaskKey, float],
    full_scale: bool = False,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig9",
        title="TestDFSIO read runtime relative to HDFS-3",
        unit="runtime / HDFS-3 runtime",
    )

    def avg(system: str, spec: Hashable) -> float:
        return mean(keyed[(system, spec, seed)] for seed in seeds)

    baseline = avg("hdfs", 3)
    result.add("hdfs 2 replicas", avg("hdfs", 2) / baseline, 1.03)
    result.add("hdfs 3 replicas", 1.0, 1.00)
    for label, _kwargs, paper in BARS:
        result.add(label, avg("raidp", label) / baseline, paper)
    result.notes = "expected shape: all configurations within a few percent of 1.0"
    return result
