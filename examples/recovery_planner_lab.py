#!/usr/bin/env python3
"""Recovery planner lab: dynamic-Hungarian re-replication.

Section 3.3 frames post-failure re-mirroring as a matching problem:
senders (disks holding now-unique superchunks) must be paired with
receivers without violating 1-sharing, without mutual exchanges, and with
balanced load.  This example fails a disk, runs the min-cost planner, and
prints the plan, its cost and the resulting load spread.

Run:  python examples/recovery_planner_lab.py
"""

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.recovery import RecoveryManager
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def build_loaded_cluster() -> RaidpCluster:
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=10),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=4,  # sparse: recovery headroom exists
    )

    def workload():
        # Uneven load: early clients write more.
        for index, client in enumerate(dfs.clients):
            size = (3 if index < 4 else 1) * units.MiB
            yield from client.write_file(f"/load/file{index}", size)

    dfs.sim.run_process(workload())
    return dfs


def main() -> None:
    dfs = build_loaded_cluster()
    manager = RecoveryManager(dfs)
    victim = "n0"
    report = manager.recover((victim,))
    print(f"disk {victim} failed, Hungarian plan:")
    for sc_id, sender, receiver in report.remirrored:
        print(f"  superchunk {sc_id}: {sender} -> {receiver}")
    print(f"  plan cost {report.plan_cost:.0f} (total receiver load, in blocks)")
    loads = sorted(
        (dfs.map.load_of_disk(dn.name), dn.name) for dn in dfs.datanodes if dn.alive
    )
    spread = loads[-1][0] - loads[0][0]
    print(
        f"  recovery took {units.format_duration(report.duration)} "
        f"(simulated); load spread {spread} blocks "
        f"(min {loads[0]}, max {loads[-1]})"
    )
    dfs.layout.verify()
    assert dfs.layout.is_fully_mirrored
    print("  1-sharing and 1-mirroring verified after recovery")


if __name__ == "__main__":
    main()
