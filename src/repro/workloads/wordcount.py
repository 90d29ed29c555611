"""WordCount (paper §6.3): read-dominated I/O plus heavy CPU.

The input is 100 GB of word instances but only ~100 distinct words, so
the output (word, count) histogram is tiny: runtime is reads plus the
counting CPU, with negligible write and shuffle volume.  No word is
counted: the counting is charged as CPU time over the bytes read.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro import units
from repro.workloads.driver import WorkloadResult, run_tasks, spread_tasks

#: CPU intensity of tokenizing and counting, relative to the base rate.
#: WordCount is markedly heavier than TeraSort's comparison passes.
COUNT_INTENSITY = 2.2

#: Size of the per-task histogram shipped to the reducer (100 unique
#: words with counts).
HISTOGRAM_BYTES = 4 * units.KiB


def wordcount_input(dfs, total_bytes: int, tasks_per_node: Optional[int] = None) -> None:
    """Write the corpus (excluded from the measured runtime)."""
    tasks = (tasks_per_node or dfs.config.tasks_per_node) * len(dfs.clients)
    per_task = total_bytes // tasks
    clients = spread_tasks(dfs, tasks)

    def all_writes():
        procs = [
            dfs.sim.process(
                client.write_file(f"/wordcount/in/part-{i}", per_task),
                name=f"wc-gen:{i}",
            )
            for i, client in enumerate(clients)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(all_writes())


def wordcount(
    dfs,
    total_bytes: int,
    tasks_per_node: Optional[int] = None,
    name: str = "wordcount",
) -> WorkloadResult:
    """Run the measured WordCount over a previously written corpus."""
    tasks = (tasks_per_node or dfs.config.tasks_per_node) * len(dfs.clients)
    per_task = total_bytes // tasks
    clients = spread_tasks(dfs, tasks)
    switch = dfs.switch
    reducer = dfs.clients[0].node

    def task(index: int) -> Generator:
        client = clients[index]
        node = client.node
        # Like the read benchmark, counting tasks are not data-local:
        # replicas are picked uniformly (rotate away from the writer).
        part = (index + tasks // 2 + 1) % tasks
        yield from client.read_file(f"/wordcount/in/part-{part}")
        yield from node.compute_bytes(per_task, intensity=COUNT_INTENSITY)
        # Ship the tiny histogram to the single reducer.
        if node is not reducer:
            yield switch.transfer(
                node.primary_nic, reducer.primary_nic, HISTOGRAM_BYTES
            )
        return None

    def reduce_task() -> Generator:
        # Merge histograms and write the tiny output file.
        yield from reducer.compute(0.5)
        yield from dfs.clients[0].write_file("/wordcount/out/part-0", units.MiB)
        return None

    bodies = [task(i) for i in range(tasks)]
    bodies.append(reduce_task())
    return run_tasks(dfs, bodies, name)
