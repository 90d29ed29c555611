#!/usr/bin/env python3
"""Quickstart: build a RAIDP cluster, write data, inspect the layout.

Builds a 7-node RAIDP deployment (the paper's Fig. 3 shape), writes a few
files through the DFS client, prints the superchunk layout and Lstor
state, and verifies the mirror and parity invariants.

Run:  python examples/quickstart.py
"""

from repro import units
from repro.core.cluster import RaidpCluster
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def main() -> None:
    # A small cluster with MB-scale geometry so real bytes are cheap.
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=7),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
    )

    print("Superchunk layout (columns = disks, rows = slots, cf. Fig. 3):")
    print(dfs.layout.render())
    print()

    # Write three files through ordinary DFS clients.
    def workload():
        yield from dfs.client(0).write_file("/warm/events.log", 5 * units.MiB)
        yield from dfs.client(1).write_file("/warm/blobs.bin", 3 * units.MiB)
        yield from dfs.client(2).write_file("/warm/index.db", 2 * units.MiB)

    dfs.sim.run_process(workload())
    print(f"wrote 3 files in {units.format_duration(dfs.sim.now)} (simulated)")
    print(f"network moved: {units.format_size(dfs.total_network_bytes())}")

    # Every block landed on a superchunk-sharing pair of DataNodes.
    for path in dfs.namenode.list_files():
        for block in dfs.namenode.file_blocks(path):
            loc = dfs.namenode.locate_block(block.block_id)
            print(
                f"  {path} {block.name}: superchunk {loc.sc_id} slot {loc.slot} "
                f"on {loc.datanodes}"
            )

    # The invariants the whole design rests on.
    dfs.verify_mirrors()
    dfs.verify_parity()
    assert dfs.journals_empty()
    print("invariants hold: mirrors identical, Lstor parity exact, journals clear")


if __name__ == "__main__":
    main()
