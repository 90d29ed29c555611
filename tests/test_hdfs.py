"""Integration tests for the baseline HDFS substrate."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.errors import (
    BlockMissingError,
    DfsError,
    FileExistsInDfsError,
    FileNotFoundInDfsError,
    PlacementError,
)
from repro.hdfs.config import DfsConfig
from repro.hdfs.filesystem import HdfsCluster
from repro.sim.cluster import ClusterSpec


def small_cluster(replication=3, num_nodes=4, payload_mode="bytes", **kwargs):
    config = DfsConfig(
        block_size=4 * units.MiB,
        packet_size=64 * units.KiB,
        replication=replication,
    )
    spec = ClusterSpec(num_nodes=num_nodes)
    return HdfsCluster(spec=spec, config=config, payload_mode=payload_mode, **kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        DfsConfig(block_size=100, packet_size=64)
    with pytest.raises(ValueError):
        DfsConfig(replication=0)


def test_write_creates_replicas_on_k_nodes():
    dfs = small_cluster(replication=3)
    client = dfs.clients[0]
    dfs.sim.run_process(client.write_file("/f1", 8 * units.MiB))
    blocks = dfs.namenode.file_blocks("/f1")
    assert len(blocks) == 2
    for block in blocks:
        locations = dfs.namenode.locate_block(block.block_id)
        assert locations.replica_count == 3
        for name in locations.datanodes:
            assert dfs.namenode.datanode(name).has_block(block.name)


def test_writer_local_replica_first():
    dfs = small_cluster(replication=2)
    client = dfs.clients[1]
    dfs.sim.run_process(client.write_file("/f", units.MiB))
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    assert locations.datanodes[0] == dfs.datanodes[1].name


def test_read_returns_written_payload():
    dfs = small_cluster(replication=2)
    client = dfs.clients[0]

    def body():
        yield from client.write_file("/f", 6 * units.MiB)
        block = dfs.namenode.file_blocks("/f")[0]
        locations = dfs.namenode.locate_block(block.block_id)
        payload = yield from client.read_block(locations)
        return payload, block

    payload, block = dfs.sim.run_process(body())
    expected = dfs.factory.make(block.name, 1, block.size)
    assert payload == expected


def test_read_file_returns_total_bytes():
    dfs = small_cluster(replication=2)
    client = dfs.clients[0]

    def body():
        yield from client.write_file("/f", 9 * units.MiB)
        total = yield from client.read_file("/f")
        return total

    assert dfs.sim.run_process(body()) == 9 * units.MiB


def test_remote_read_crosses_network():
    dfs = small_cluster(replication=2)
    writer = dfs.clients[0]

    def body():
        yield from writer.write_file("/f", 4 * units.MiB)

    dfs.sim.run_process(body())
    # Read from a node that holds no replica.
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    non_replica = next(
        c for c in dfs.clients if c.node.name not in locations.datanodes
    )
    before = dfs.total_network_bytes()

    def read_body():
        yield from non_replica.read_file("/f")

    dfs.sim.run_process(read_body())
    assert dfs.total_network_bytes() - before == 4 * units.MiB


def test_write_network_volume_scales_with_replication():
    volumes = {}
    for replication in (2, 3):
        dfs = small_cluster(replication=replication, payload_mode="tokens")
        client = dfs.clients[0]
        dfs.sim.run_process(client.write_file("/f", 16 * units.MiB))
        volumes[replication] = dfs.total_network_bytes()
    # Writer-local first replica: k replicas need k-1 network copies.
    assert volumes[3] == pytest.approx(volumes[2] * 2, rel=0.01)


def test_triplication_slower_than_two_replicas():
    runtimes = {}
    for replication in (2, 3):
        dfs = small_cluster(replication=replication, payload_mode="tokens")

        def all_writers(dfs=dfs):
            procs = [
                dfs.sim.process(c.write_file(f"/f{i}", 32 * units.MiB))
                for i, c in enumerate(dfs.clients)
            ]
            yield dfs.sim.all_of(procs)

        dfs.sim.run_process(all_writers())
        runtimes[replication] = dfs.sim.now
    assert runtimes[3] > runtimes[2]


def test_duplicate_create_rejected():
    dfs = small_cluster()
    client = dfs.clients[0]
    dfs.sim.run_process(client.write_file("/f", units.MiB))
    with pytest.raises(FileExistsInDfsError):
        dfs.sim.run_process(client.write_file("/f", units.MiB))


def test_missing_file_read_rejected():
    dfs = small_cluster()
    client = dfs.clients[0]
    with pytest.raises(FileNotFoundInDfsError):
        dfs.sim.run_process(client.read_file("/nope"))


def test_placement_fails_with_too_few_nodes():
    dfs = small_cluster(replication=3, num_nodes=4)
    for name in ("n1", "n2"):
        dfs.namenode.mark_datanode_dead(name)
    client = dfs.clients[0]
    with pytest.raises(PlacementError):
        dfs.sim.run_process(client.write_file("/f", units.MiB))


def test_delete_file_drops_replicas():
    dfs = small_cluster(replication=2)
    client = dfs.clients[0]

    def body():
        yield from client.write_file("/f", 4 * units.MiB)
        block = dfs.namenode.file_blocks("/f")[0]
        yield from client.delete_file("/f")
        return block

    block = dfs.sim.run_process(body())
    assert not dfs.namenode.file_exists("/f")
    for datanode in dfs.datanodes:
        assert not datanode.has_block(block.name)


def test_datanode_death_surfaces_under_replication():
    dfs = small_cluster(replication=2)
    client = dfs.clients[0]
    dfs.sim.run_process(client.write_file("/f", 8 * units.MiB))
    victim = dfs.namenode.locate_block(
        dfs.namenode.file_blocks("/f")[0].block_id
    ).datanodes[0]
    affected = dfs.namenode.mark_datanode_dead(victim)
    assert affected
    assert dfs.namenode.under_replicated()
    assert not dfs.namenode.lost_blocks()


def test_all_replicas_dead_is_lost_block():
    dfs = small_cluster(replication=2)
    client = dfs.clients[0]
    dfs.sim.run_process(client.write_file("/f", units.MiB))
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    for name in list(locations.datanodes):
        dfs.namenode.mark_datanode_dead(name)
    assert dfs.namenode.lost_blocks()
    reader = dfs.clients[3]
    with pytest.raises(BlockMissingError):
        dfs.sim.run_process(reader.read_file("/f"))


def test_rewrite_bumps_version_and_keeps_placement():
    dfs = small_cluster(replication=2)
    client = dfs.clients[0]

    def body():
        yield from client.write_file("/f", 4 * units.MiB)
        block = dfs.namenode.file_blocks("/f")[0]
        before = list(dfs.namenode.locate_block(block.block_id).datanodes)
        yield from client.rewrite_file("/f")
        after = dfs.namenode.locate_block(block.block_id)
        return block, before, after

    block, before, after = dfs.sim.run_process(body())
    assert after.datanodes == before
    assert after.version == 2
    replica = dfs.namenode.datanode(after.datanodes[0])
    assert replica.version_of(block.name) == 2
    assert replica.content_of(block.name) == dfs.factory.make(block.name, 2, block.size)


def test_streamed_and_accumulated_paths_both_store_content():
    """Stock HDFS streams every write; optimized RAIDP accumulates."""
    accumulated = RaidpCluster(
        spec=ClusterSpec(num_nodes=4),
        config=DfsConfig(block_size=4 * units.MiB, replication=2),
        superchunk_size=16 * units.MiB,
        payload_mode="bytes",
    )
    assert accumulated.raidp.optimized
    for dfs in (small_cluster(replication=2), accumulated):
        client = dfs.clients[0]
        dfs.sim.run_process(client.write_file("/f", 4 * units.MiB))
        block = dfs.namenode.file_blocks("/f")[0]
        locations = dfs.namenode.locate_block(block.block_id)
        for name in locations.datanodes:
            assert dfs.namenode.datanode(name).has_block(block.name)
