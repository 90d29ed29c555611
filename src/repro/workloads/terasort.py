"""TeraGen + TeraSort (paper §6.3).

The timed model follows Hadoop's TeraSort execution:

1. **TeraGen** (not measured, like the paper): each task writes its slice
   of the input through the DFS.
2. **Map phase** (measured): every task reads its input slice from the
   DFS and partitions it by key range -- a CPU pass over the data.
3. **Shuffle** (measured): each node ships ``(N-1)/N`` of its map output
   to the other nodes (uniform keys, uniform partitions).
4. **Reduce phase** (measured): a CPU merge pass, then the sorted output
   is written through the DFS *at the configured replication factor* --
   the paper modifies stock TeraSort (which writes one replica) the same
   way, precisely to expose the replication difference.

No record is sorted: the phases are charged as I/O, network and CPU
time over the DFS data.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.workloads.driver import WorkloadResult, run_tasks, spread_tasks

#: CPU intensity (passes over the data) of map partitioning and reduce
#: merging, relative to the node's base compute rate.
MAP_INTENSITY = 0.6
REDUCE_INTENSITY = 0.8


# ----------------------------------------------------------------------
# Timed workload.
# ----------------------------------------------------------------------
def teragen(dfs, total_bytes: int, tasks_per_node: Optional[int] = None) -> None:
    """Generate the TeraSort input (excluded from the measured runtime)."""
    tasks = (tasks_per_node or dfs.config.tasks_per_node) * len(dfs.clients)
    per_task = total_bytes // tasks
    clients = spread_tasks(dfs, tasks)

    def all_gens():
        procs = [
            dfs.sim.process(
                client.write_file(f"/terasort/in/part-{i}", per_task),
                name=f"teragen:{i}",
            )
            for i, client in enumerate(clients)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(all_gens())


def terasort_tasks(
    dfs,
    total_bytes: int,
    tasks_per_node: Optional[int] = None,
    input_prefix: str = "/terasort/in",
    output_prefix: str = "/terasort/out",
    shuffle_counter: Optional[List[int]] = None,
) -> List[Generator]:
    """Build the TeraSort task bodies without driving the simulator.

    Each body does the map read (data-local), the partition CPU pass,
    the all-to-all shuffle, the reduce merge pass, and the replicated
    output write.  ``shuffle_counter`` (a one-element list) accumulates
    the MapReduce-internal shuffle volume for the caller.  Usable via
    :func:`~repro.workloads.driver.run_tasks` for measured runs or
    :func:`~repro.workloads.driver.workload_body` inside a live scenario
    (the chaos soak runs TeraSort under fault injection this way).
    """
    tasks = (tasks_per_node or dfs.config.tasks_per_node) * len(dfs.clients)
    per_task = total_bytes // tasks
    clients = spread_tasks(dfs, tasks)
    num_nodes = len(dfs.clients)
    switch = dfs.switch
    counter = shuffle_counter if shuffle_counter is not None else [0]

    def task(index: int) -> Generator:
        client = clients[index]
        node = client.node
        # Map: read the input slice (maps are scheduled data-local, as
        # Hadoop's scheduler does) and partition it (CPU pass).
        yield from client.read_file(f"{input_prefix}/part-{index}", prefer_local=True)
        yield from node.compute_bytes(per_task, intensity=MAP_INTENSITY)
        # Shuffle: ship (N-1)/N of the slice to the other nodes.
        share = per_task // num_nodes
        flows = []
        for peer_client in dfs.clients:
            peer = peer_client.node
            if peer is node or share == 0:
                continue
            flows.append(
                switch.transfer(node.primary_nic, peer.primary_nic, share)
            )
            counter[0] += share
        if flows:
            yield dfs.sim.all_of(flows)
        # Reduce: merge (CPU pass) and write the sorted output at the
        # configured replication.
        yield from node.compute_bytes(per_task, intensity=REDUCE_INTENSITY)
        yield from client.write_file(f"{output_prefix}/part-{index}", per_task)
        return None

    return [task(i) for i in range(tasks)]


def terasort(
    dfs,
    total_bytes: int,
    tasks_per_node: Optional[int] = None,
    output_replication: Optional[int] = None,
    name: str = "terasort",
) -> WorkloadResult:
    """Run the measured TeraSort over a previously TeraGen'd input."""
    shuffle_counter = [0]
    bodies = terasort_tasks(
        dfs, total_bytes, tasks_per_node, shuffle_counter=shuffle_counter
    )
    result = run_tasks(dfs, bodies, name)
    # Record the MapReduce-internal shuffle volume so the Fig. 10 metric
    # (accumulated DFS traffic) can be separated from it -- the paper's
    # counter tracks the HDFS layer, where replication dominates.
    result.extra["shuffle_bytes"] = float(shuffle_counter[0])
    return result
