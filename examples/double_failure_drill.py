#!/usr/bin/env python3
"""Double-failure drill: lose two disks, recover the shared superchunk.

This is the paper's headline capability (§3.3, §6.4): two disks fail
simultaneously, both copies of their shared superchunk are gone, and the
data comes back bit-for-bit from an Lstor's XOR parity plus the surviving
mirrors.  Runs with real bytes so the recovered content is compared
byte-for-byte against the originals.

Run:  python examples/double_failure_drill.py
"""

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.recovery import RecoveryManager, RecoveryOptions
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def main() -> None:
    # A sparse layout (3 superchunks per disk, not the N-1 maximum)
    # leaves the re-mirroring headroom recovery needs.
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,
    )

    def workload():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/data/file{index}", 3 * units.MiB)

    dfs.sim.run_process(workload())
    dfs.verify_parity()

    # Pick two disks that share a superchunk; snapshot what will be lost.
    victim_a, victim_b = next(
        (a, b)
        for a in dfs.layout.disks
        for b in dfs.layout.disks
        if a < b and dfs.layout.shared(a, b) is not None
    )
    shared = dfs.layout.shared(victim_a, victim_b)
    originals = {
        name: dfs.datanode_by_name(victim_a).content_of(name)
        for name in dfs.map.blocks_in(shared).values()
        if dfs.datanode_by_name(victim_a).has_block(name)
    }
    print(
        f"failing disks {victim_a} and {victim_b}; superchunk {shared} "
        f"({len(originals)} blocks) loses both copies"
    )

    manager = RecoveryManager(dfs)
    report = manager.recover(
        (victim_a, victim_b),
        RecoveryOptions(lock_mode="byte_range", chunk_size=units.MiB),
    )
    print(
        f"recovered superchunk {report.reconstructed[0]} and re-mirrored "
        f"{len(report.remirrored)} superchunks in "
        f"{units.format_duration(report.duration)} (simulated)"
    )

    # Verify every lost block byte-for-byte on its new homes.
    for name, original in originals.items():
        locations = next(
            loc for loc in dfs.namenode.all_blocks() if loc.block.name == name
        )
        live = [n for n in locations.datanodes if dfs.namenode.datanode(n).alive]
        assert len(live) >= 2, f"{name} is under-replicated after recovery"
        for node_name in live:
            recovered = dfs.datanode_by_name(node_name).content_of(name)
            assert recovered == original, f"bit rot in {name} on {node_name}"
    dfs.layout.verify()
    dfs.verify_mirrors()
    dfs.verify_parity()
    print("every lost block verified bit-for-bit; all invariants restored")


if __name__ == "__main__":
    main()
