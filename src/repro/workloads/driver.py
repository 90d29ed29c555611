"""Shared workload plumbing: task fan-out and result accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List

from repro import units


@dataclass
class WorkloadResult:
    """What one workload run measured."""

    name: str
    runtime: float
    network_bytes: int
    disk_reads: int = 0
    disk_writes: int = 0
    disk_bytes_read: int = 0
    disk_bytes_written: int = 0
    disk_seeks: int = 0
    tasks: int = 0
    #: Workload-specific extras (e.g. TeraSort's shuffle volume, so the
    #: DFS-layer traffic can be separated from MapReduce-internal flows).
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def dfs_network_bytes(self) -> float:
        """Network volume minus MapReduce-internal (shuffle) traffic."""
        return self.network_bytes - self.extra.get("shuffle_bytes", 0.0)

    @property
    def network_gb(self) -> float:
        return self.network_bytes / units.GB

    def summary(self) -> str:
        return (
            f"{self.name}: {units.format_duration(self.runtime)}, "
            f"network {self.network_gb:.1f} GB, "
            f"disk r/w {self.disk_reads}/{self.disk_writes}, "
            f"seeks {self.disk_seeks}"
        )


def workload_body(dfs, task_bodies: List[Generator], name: str) -> Generator:
    """Process body fanning the tasks out and waiting for all of them.

    Usable from *inside* a running simulation (a chaos scenario, a
    monitored run), unlike :func:`run_tasks`, which drives the simulator
    itself and therefore cannot coexist with live monitor loops.
    """
    procs = [
        dfs.sim.process(body, name=f"{name}:task{i}")
        for i, body in enumerate(task_bodies)
    ]
    yield dfs.sim.all_of(procs)
    return None


def run_tasks(dfs, task_bodies: List[Generator], name: str) -> WorkloadResult:
    """Run task process bodies concurrently; measure the workload window.

    ``dfs`` is an HdfsCluster or RaidpCluster.  Counters are measured as
    deltas across the run so preparatory phases (TeraGen, cache warm-up)
    are excluded, matching the paper's methodology.
    """
    start_time = dfs.sim.now
    start_network = dfs.total_network_bytes()
    start_disk = dfs.cluster.total_disk_stats()

    dfs.sim.run_process(workload_body(dfs, task_bodies, name))
    end_disk = dfs.cluster.total_disk_stats()
    return WorkloadResult(
        name=name,
        runtime=dfs.sim.now - start_time,
        network_bytes=dfs.total_network_bytes() - start_network,
        disk_reads=end_disk["reads"] - start_disk["reads"],
        disk_writes=end_disk["writes"] - start_disk["writes"],
        disk_bytes_read=end_disk["bytes_read"] - start_disk["bytes_read"],
        disk_bytes_written=end_disk["bytes_written"] - start_disk["bytes_written"],
        disk_seeks=end_disk["seeks"] - start_disk["seeks"],
        tasks=len(task_bodies),
    )


def spread_tasks(dfs, total_tasks: int) -> List:
    """Assign tasks to clients round-robin (Hadoop collocates tasks)."""
    clients = dfs.clients
    return [clients[i % len(clients)] for i in range(total_tasks)]
