"""Tests for the workload drivers (DFSIO, TeraSort, WordCount)."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.hdfs.config import DfsConfig
from repro.hdfs.filesystem import HdfsCluster
from repro.sim.cluster import ClusterSpec
from repro.workloads.dfsio import dfsio_read, dfsio_write
from repro.workloads.terasort import teragen, terasort
from repro.workloads.wordcount import wordcount, wordcount_input


def hdfs(replication=3, num_nodes=4):
    config = DfsConfig(block_size=4 * units.MiB, replication=replication)
    return HdfsCluster(
        spec=ClusterSpec(num_nodes=num_nodes), config=config
    )


def raidp(num_nodes=4):
    config = DfsConfig(block_size=4 * units.MiB, replication=2)
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=config,
        superchunk_size=64 * units.MiB,
    )


TOTAL = 128 * units.MiB


# ----------------------------------------------------------------------
# DFSIO.
# ----------------------------------------------------------------------
def test_dfsio_write_runs_on_hdfs_and_raidp():
    for dfs in (hdfs(), raidp()):
        result = dfsio_write(dfs, TOTAL)
        assert result.runtime > 0
        assert result.tasks == dfs.config.tasks_per_node * len(dfs.clients)
        assert result.disk_bytes_written >= TOTAL  # replicas multiply this


def test_dfsio_write_volume_matches_replication():
    h3 = hdfs(replication=3)
    result = dfsio_write(h3, TOTAL)
    assert result.disk_bytes_written == pytest.approx(3 * TOTAL, rel=0.01)
    r = raidp()
    result = dfsio_write(r, TOTAL)
    assert result.disk_bytes_written == pytest.approx(2 * TOTAL, rel=0.01)


def test_dfsio_network_halved_on_raidp():
    h3 = hdfs(replication=3)
    r = raidp()
    net_h3 = dfsio_write(h3, TOTAL).network_bytes
    net_r = dfsio_write(r, TOTAL).network_bytes
    assert net_r == pytest.approx(net_h3 / 2, rel=0.02)


def test_dfsio_read_after_write():
    dfs = hdfs()
    dfsio_write(dfs, TOTAL)
    result = dfsio_read(dfs)
    assert result.runtime > 0
    assert result.disk_bytes_read == pytest.approx(TOTAL, rel=0.01)


def test_dfsio_rejects_tiny_totals():
    with pytest.raises(ValueError):
        dfsio_write(hdfs(), 4)


# ----------------------------------------------------------------------
# TeraSort timed workload.
# ----------------------------------------------------------------------
def test_terasort_runs_and_writes_output():
    dfs = hdfs()
    teragen(dfs, TOTAL)
    result = terasort(dfs, TOTAL)
    assert result.runtime > 0
    out_files = [p for p in dfs.namenode.list_files() if p.startswith("/terasort/out")]
    assert len(out_files) == result.tasks


def test_terasort_network_reflects_replication():
    h3 = hdfs(replication=3)
    teragen(h3, TOTAL)
    net_h3 = terasort(h3, TOTAL).network_bytes
    r = raidp()
    teragen(r, TOTAL)
    net_r = terasort(r, TOTAL).network_bytes
    # Shuffle volume is equal; the output-replication volume halves, so
    # RAIDP lands clearly below HDFS-3 but above half.
    assert net_r < net_h3


# ----------------------------------------------------------------------
# WordCount.
# ----------------------------------------------------------------------
def test_wordcount_runs_and_is_read_dominated():
    dfs = hdfs()
    wordcount_input(dfs, TOTAL)
    result = wordcount(dfs, TOTAL)
    assert result.runtime > 0
    assert result.disk_bytes_read > result.disk_bytes_written / 2


def test_wordcount_cpu_makes_it_slower_than_plain_read():
    dfs = hdfs()
    dfsio_write(dfs, TOTAL)
    read_result = dfsio_read(dfs)
    dfs2 = hdfs()
    wordcount_input(dfs2, TOTAL)
    wc_result = wordcount(dfs2, TOTAL)
    assert wc_result.runtime > read_result.runtime


def test_workload_result_summary_renders():
    dfs = hdfs()
    result = dfsio_write(dfs, TOTAL)
    text = result.summary()
    assert "dfsio-write" in text
    assert "GB" in text
