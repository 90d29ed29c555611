"""Every dead set against the recovery plan: the simulator loses exactly
what :func:`~repro.core.layout.plan_recovery` says, and nothing else.

The cluster is the 10-disk, 3-superchunks-per-disk rotational layout
(Fig. 3) with ten 3 MiB files written.  For one dead set, :func:`check`
fails its disks, plans the recovery, runs ``failure_body`` on a fresh
cluster and requires:

- the body raises nothing;
- the planner's lost set equals ``report.lost_superchunks``;
- every block outside a lost superchunk keeps a replica, and every
  replica reads back bit-exact;
- ``layout.verify()``, ``verify_mirrors()`` and ``verify_parity()`` pass.

``make dead-sets`` runs all 385 dead sets of size 1-4 (a few seconds);
``tests/test_recovery_plan.py`` runs a fixed sample in tier-1.

Run:  PYTHONPATH=src python -m tests.dead_sets
"""

from __future__ import annotations

import itertools
import sys
from typing import Iterator, Sequence, Tuple

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.layout import plan_recovery
from repro.core.node import liveness
from repro.core.recovery import RecoveryManager, RecoveryReport
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec

DISKS = tuple(f"n{i}" for i in range(10))


def loaded_cluster() -> RaidpCluster:
    """Ten disks, three superchunks each, ten 3 MiB files written."""
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=len(DISKS)),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,
    )

    def body():
        procs = [
            dfs.sim.process(dfs.clients[i].write_file(f"/f{i}", 3 * units.MiB))
            for i in range(len(DISKS))
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(body())
    return dfs


def check(dead: Sequence[str]) -> RecoveryReport:
    """Fail ``dead`` at once, recover it, and hold the outcome to the
    plan; returns the report."""
    dfs = loaded_cluster()
    expected = {
        loc.block.name: dfs.datanode_by_name(loc.datanodes[0]).content_of(loc.block.name)
        for loc in dfs.namenode.all_blocks()
    }
    for name in dead:
        dfs.datanode_by_name(name).disk.fail()
    plan = plan_recovery(dfs.layout, dead, *liveness(dfs.datanodes))
    report = dfs.sim.run_process(RecoveryManager(dfs).failure_body(dead))
    assert [sc_id for sc_id, _exc in report.lost_superchunks] == plan.lost, dead
    for loc in dfs.namenode.all_blocks():
        assert loc.datanodes or loc.sc_id in plan.lost, (dead, loc.block.name)
        for name in loc.datanodes:
            content = dfs.datanode_by_name(name).content_of(loc.block.name)
            assert content == expected[loc.block.name], (dead, loc.block.name, name)
    dfs.layout.verify()
    dfs.verify_mirrors()
    dfs.verify_parity()
    return report


def dead_sets(sizes: Sequence[int] = (1, 2, 3, 4)) -> Iterator[Tuple[str, ...]]:
    for size in sizes:
        yield from itertools.combinations(DISKS, size)


def main() -> int:
    swept = losing = unplaced = 0
    for dead in dead_sets():
        report = check(dead)
        swept += 1
        losing += bool(report.lost_superchunks)
        unplaced += bool(report.unplaced_orphans)
    print(
        f"dead-sets: {swept} dead sets of size 1-4 match the plan; "
        f"{losing} lose data, {unplaced} leave an orphan unplaced"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
