"""TestDFSIO: the standard HDFS throughput benchmark (paper §6.1, §6.2).

``dfsio_write`` spawns ``tasks_per_node`` map tasks on every node; each
task writes its own file of ``total_bytes / tasks`` bytes through the DFS
client, exactly as Hadoop's TestDFSIO does.  ``dfsio_read`` reads the
files back (caches are cold by construction -- every read charges disk
time).
"""

from __future__ import annotations

from typing import List, Optional

from repro.workloads.driver import WorkloadResult, run_tasks, spread_tasks


def dfsio_paths(tasks: int) -> List[str]:
    return [f"/benchmarks/TestDFSIO/io_data/test_io_{i}" for i in range(tasks)]


def dfsio_write(
    dfs,
    total_bytes: int,
    tasks_per_node: Optional[int] = None,
    name: str = "dfsio-write",
) -> WorkloadResult:
    """Write ``total_bytes`` spread across one file per task."""
    tasks = (tasks_per_node or dfs.config.tasks_per_node) * len(dfs.clients)
    per_task = total_bytes // tasks
    if per_task <= 0:
        raise ValueError("total_bytes too small for the task count")
    clients = spread_tasks(dfs, tasks)
    bodies = [
        client.write_file(path, per_task)
        for client, path in zip(clients, dfsio_paths(tasks))
    ]
    return run_tasks(dfs, bodies, name)


def dfsio_read(
    dfs,
    tasks_per_node: Optional[int] = None,
    name: str = "dfsio-read",
) -> WorkloadResult:
    """Read back the files written by :func:`dfsio_write`.

    Read tasks are rotated relative to the writers: the paper's read
    phase is not data-local, observing a uniform choice among replicas
    (which is what makes Fig. 10's read network volume nonzero and ~7%
    higher on RAIDP -- fewer replicas, fewer chances of a local one).
    """
    tasks = (tasks_per_node or dfs.config.tasks_per_node) * len(dfs.clients)
    clients = spread_tasks(dfs, tasks)
    paths = dfsio_paths(tasks)
    # Rotate by an odd offset: with tasks_per_node tasks per client, an
    # even rotation could land every reader back on its file's writer.
    shift = tasks // 2 + 1
    rotated = paths[shift:] + paths[:shift]
    bodies = [client.read_file(path) for client, path in zip(clients, rotated)]
    return run_tasks(dfs, bodies, name)

