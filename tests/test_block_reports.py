"""Tests for block-report reconciliation (HDFS metadata anti-entropy)."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.hdfs.config import DfsConfig
from repro.hdfs.filesystem import HdfsCluster
from repro.sim.cluster import ClusterSpec


def hdfs():
    return HdfsCluster(
        spec=ClusterSpec(num_nodes=4),
        config=DfsConfig(block_size=units.MiB, replication=2),
        payload_mode="tokens",
    )


def test_clean_report_changes_nothing():
    dfs = hdfs()
    dfs.sim.run_process(dfs.clients[0].write_file("/f", 3 * units.MiB))
    for datanode in dfs.datanodes:
        missing, orphans = dfs.namenode.process_block_report(
            datanode.name, datanode.block_report()
        )
        assert missing == []
        assert orphans == []
    assert not dfs.namenode.under_replicated()


def test_report_surfaces_silently_lost_replicas():
    dfs = hdfs()
    dfs.sim.run_process(dfs.clients[0].write_file("/f", 2 * units.MiB))
    block = dfs.namenode.file_blocks("/f")[0]
    locations = dfs.namenode.locate_block(block.block_id)
    victim = dfs.namenode.datanode(locations.datanodes[0])
    victim.drop_content(block.name)  # silent loss (wiped sector, fsck)
    missing, orphans = dfs.namenode.process_block_report(
        victim.name, victim.block_report()
    )
    assert missing == [block.name]
    assert orphans == []
    assert victim.name not in dfs.namenode.locate_block(block.block_id).datanodes
    assert dfs.namenode.under_replicated()


def test_report_surfaces_orphan_replicas():
    dfs = hdfs()
    dfs.sim.run_process(dfs.clients[0].write_file("/f", units.MiB))
    block = dfs.namenode.file_blocks("/f")[0]
    locations = dfs.namenode.locate_block(block.block_id)
    holder = dfs.namenode.datanode(locations.datanodes[0])
    # The namespace forgets the file but the replica lingers (lazy
    # deletion that never completed).
    dfs.namenode.delete_file("/f")
    missing, orphans = dfs.namenode.process_block_report(
        holder.name, holder.block_report()
    )
    assert orphans == [block.name]
    assert missing == []


def test_raidp_report_excludes_prealloc_fillers():
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=4),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(update_oriented=True),
        superchunk_size=2 * units.MiB,
        payload_mode="tokens",
    )
    dfs.sim.run_process(dfs.clients[0].write_file("/f", units.MiB))
    for datanode in dfs.datanodes:
        report = datanode.block_report()
        assert all(not name.startswith("pre_sc") for name in report)
        missing, orphans = dfs.namenode.process_block_report(datanode.name, report)
        assert missing == []
        assert orphans == []
