"""Fig. 10: RAIDP vs HDFS-3 across write / terasort / wordcount / read.

Top row: runtimes with the percentage delta the paper prints above the
RAIDP bars (-22%, -9%, +0%, +3%).  Bottom row: accumulated network volume
(-50%, -54%, +22%, +7%).  For TeraSort the network metric is the DFS
layer's traffic (replication + remote reads); the MapReduce shuffle is
reported separately, since the paper's counter tracks HDFS traffic where
replication dominates.
"""

from __future__ import annotations

from repro.sim.stats import mean
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.common import (
    DEFAULT_SEEDS,
    Scale,
    build_hdfs,
    build_hdfs_written,
    build_raidp,
    build_raidp_written,
    pick_scale,
    warm_phase,
)
from repro.experiments.runner import ExperimentResult
from repro.workloads.dfsio import dfsio_read, dfsio_write
from repro.workloads.terasort import teragen, terasort
from repro.workloads.wordcount import wordcount, wordcount_input

#: workload -> (paper runtime delta, paper network delta).
PAPER_DELTAS = {
    "write": (-0.22, -0.50),
    "terasort": (-0.09, -0.54),
    "wordcount": (0.00, 0.22),
    "read": (0.03, 0.07),
}

#: Task key: (system, workload, placement seed).
TaskKey = Tuple[str, str, int]


def tasks(full_scale: bool = False, seeds: Sequence[int] = DEFAULT_SEEDS) -> List[TaskKey]:
    return [
        (system, workload, seed)
        for workload in PAPER_DELTAS
        for system in ("hdfs3", "raidp")
        for seed in seeds
    ]


def _warm_generated(
    system: str, warmup_name: str, warmup: Any, scale: Scale, seed: int
) -> Any:
    """A cluster restored at the boundary after ``warmup`` ran on it."""
    builder = (
        (lambda: build_hdfs(3, scale, seed))
        if system == "hdfs3"
        else (lambda: build_raidp(scale, seed))
    )
    return warm_phase(
        f"{system}_{warmup_name}",
        builder,
        warmup,
        dataset=scale.dataset,
        nodes=scale.num_nodes,
        seed=seed,
    )


def run_task(key: TaskKey, full_scale: bool = False) -> Tuple[float, float]:
    """One cell: (runtime, network bytes) for one system+workload+seed.

    The write runs on a freshly built cluster.  Every other workload's
    un-measured ingest phase (DFSIO write, TeraGen, WordCount corpus
    generation) is phase-memoized: the cluster restores at the
    post-ingest boundary instead of re-simulating it per task,
    bitwise-identical to the inline run (fingerprint tests pin this).
    """
    system, workload, seed = key
    scale = pick_scale(full_scale)
    dataset = scale.dataset
    if workload == "write":
        dfs = (
            build_hdfs(3, scale, seed)
            if system == "hdfs3"
            else build_raidp(scale, seed)
        )
        res = dfsio_write(dfs, dataset)
        return res.runtime, float(res.network_bytes)
    if workload == "read":
        dfs = (
            build_hdfs_written(3, scale, seed)
            if system == "hdfs3"
            else build_raidp_written(scale, seed)
        )
        res = dfsio_read(dfs)
        return res.runtime, float(res.network_bytes)
    if workload == "terasort":
        dfs = _warm_generated(
            system, "teragen", lambda d: teragen(d, dataset), scale, seed
        )
        res = terasort(dfs, dataset)
        return res.runtime, res.dfs_network_bytes
    if workload == "wordcount":
        dfs = _warm_generated(
            system, "wc_input", lambda d: wordcount_input(d, dataset), scale, seed
        )
        res = wordcount(dfs, dataset)
        return res.runtime, float(res.network_bytes)
    raise ValueError(f"unknown workload {workload!r}")


def merge(
    keyed: Dict[TaskKey, Tuple[float, float]],
    full_scale: bool = False,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig10",
        title="RAIDP vs HDFS-3: runtime and network deltas",
        unit="relative delta (raidp/hdfs3 - 1)",
    )

    def avg(system: str, workload: str) -> Tuple[float, float]:
        samples = [keyed[(system, workload, seed)] for seed in seeds]
        return mean(s[0] for s in samples), mean(s[1] for s in samples)

    for workload, (paper_rt, paper_net) in PAPER_DELTAS.items():
        hdfs_rt, hdfs_net = avg("hdfs3", workload)
        raidp_rt, raidp_net = avg("raidp", workload)
        result.add(f"{workload}: runtime delta", raidp_rt / hdfs_rt - 1.0, paper_rt)
        result.add(f"{workload}: network delta", raidp_net / hdfs_net - 1.0, paper_net)
    result.notes = (
        "paper's wordcount +22% network carries a 23% stddev (called noise "
        "in the text); the reproduced value is near zero"
    )
    return result
