"""Tests for parallel-halves reconstruction (§3.3's dual-Lstor rebuild)."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager, RecoveryOptions
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def sparse_cluster():
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,
    )


def write_some(dfs, files=10):
    def body():
        procs = [
            dfs.sim.process(
                dfs.clients[i % len(dfs.clients)].write_file(f"/f{i}", 4 * units.MiB)
            )
            for i in range(files)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(body())


def sharing_pair(dfs):
    return next(
        (a, b)
        for a in dfs.layout.disks
        for b in dfs.layout.disks
        if a < b and dfs.layout.shared(a, b) is not None
    )


def test_parallel_halves_is_bit_exact():
    dfs = sparse_cluster()
    write_some(dfs)
    a, b = sharing_pair(dfs)
    shared = dfs.layout.shared(a, b)
    originals = {
        name: dfs.datanode_by_name(a).content_of(name)
        for name in dfs.map.blocks_in(shared).values()
        if dfs.datanode_by_name(a).has_block(name)
    }
    manager = RecoveryManager(dfs)
    report = manager.recover((a, b), RecoveryOptions(parallel_halves=True))
    assert report.reconstructed == [shared]
    dfs.verify_mirrors()
    dfs.verify_parity()
    for name, original in originals.items():
        locations = next(
            loc for loc in dfs.namenode.all_blocks() if loc.block.name == name
        )
        for home in locations.datanodes:
            datanode = dfs.datanode_by_name(home)
            if datanode.alive:
                assert datanode.content_of(name) == original


def test_parallel_halves_speeds_up_reconstruction():
    """With two receivers the incast bottleneck halves: the paper's
    'each set used to rebuild half' claim, on the Table 2 geometry.
    (1.57x, not 2x: every surviving disk then feeds both halves and
    binds instead.)"""

    def duration(parallel):
        dfs = RaidpCluster(
            spec=ClusterSpec(num_nodes=16),
            config=DfsConfig(replication=2),
            raidp=RaidpConfig(),
            superchunk_size=6 * units.GiB,
        )
        manager = RecoveryManager(dfs)
        options = RecoveryOptions(parallel_halves=parallel)
        report = manager.recover(("n0", "n1"), options, reconstruct_only=True)
        return report.duration

    single = duration(False)
    halves = duration(True)
    assert halves < single * 0.65


def test_parallel_halves_falls_back_when_one_lstor_dead():
    dfs = sparse_cluster()
    write_some(dfs)
    a, b = sharing_pair(dfs)
    dfs.datanode_by_name(b).lstors.primary.fail()
    manager = RecoveryManager(dfs)
    report = manager.recover((a, b), RecoveryOptions(parallel_halves=True))
    assert report.reconstructed
    dfs.verify_mirrors()
