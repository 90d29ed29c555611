#!/usr/bin/env python3
"""Self-healing cluster: heartbeats, detection, automatic Lstor recovery.

Runs a RAIDP cluster with the monitor attached, kills two disks that
share a superchunk mid-run, and watches the cluster detect the failures
via missed heartbeats, reconstruct the doubly-lost superchunk from an
Lstor, re-mirror everything else, and return to full health -- with the
workload's data verified bit-for-bit afterwards.

Run:  python examples/self_healing_cluster.py
"""

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.monitor import ClusterMonitor, MonitorConfig
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def main() -> None:
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,  # headroom for re-mirroring
    )

    def workload():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/data/file{index}", 3 * units.MiB)

    dfs.sim.run_process(workload())
    originals = {
        loc.block.name: dfs.datanode_by_name(loc.datanodes[0]).content_of(
            loc.block.name
        )
        for loc in dfs.namenode.all_blocks()
    }

    victim_a, victim_b = next(
        (a, b)
        for a in dfs.layout.disks
        for b in dfs.layout.disks
        if a < b and dfs.layout.shared(a, b) is not None
    )
    monitor = ClusterMonitor(dfs, MonitorConfig(heartbeat_interval=3.0, dead_after=12.0))
    monitor.start()

    def disaster():
        yield dfs.sim.timeout(10.0)
        print(f"t={dfs.sim.now:5.1f}s  disks {victim_a} and {victim_b} fail silently")
        dfs.datanode_by_name(victim_a).disk.fail()
        dfs.datanode_by_name(victim_b).disk.fail()
        yield dfs.sim.timeout(120.0)

    scenario = dfs.sim.process(disaster(), name="disaster")
    dfs.sim.run(until=180.0)
    assert scenario.triggered
    monitor.stop()
    dfs.sim.run()

    for when, names in monitor.detected:
        print(f"t={when:5.1f}s  monitor detected dead: {', '.join(names)}")
    for report in monitor.reports:
        what = (
            f"reconstructed superchunks {report.reconstructed} and "
            if report.reconstructed
            else ""
        )
        print(
            f"         recovery: {what}re-mirrored {len(report.remirrored)} "
            f"superchunks in {units.format_duration(report.duration)}"
        )

    # Full health: invariants and every byte of every block.
    dfs.layout.verify()
    assert dfs.layout.is_fully_mirrored
    dfs.verify_mirrors()
    dfs.verify_parity()
    survivors = 0
    for loc in dfs.namenode.all_blocks():
        live = [n for n in loc.datanodes if dfs.namenode.datanode(n).alive]
        assert len(live) >= 2
        for node in live:
            assert dfs.datanode_by_name(node).content_of(loc.block.name) == originals[
                loc.block.name
            ]
            survivors += 1
    print(f"cluster healed itself: {survivors} replicas verified bit-for-bit")


if __name__ == "__main__":
    main()
