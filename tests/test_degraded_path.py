"""Tests for §3.4's data-path behavior during failures: degraded reads
through the Lstor and write diversion from recovering superchunks."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager
from repro.errors import BlockMissingError
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from tests.test_preallocation import block_in_slot


def cluster(payload_mode="bytes", num_nodes=6, per_disk=None):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=per_disk,
        payload_mode=payload_mode,
    )


def fail_both_replicas(dfs, locations):
    for name in locations.datanodes:
        datanode = dfs.datanode_by_name(name)
        datanode.disk.fail()
        dfs.namenode.datanode(name).alive = False
    return locations


# ----------------------------------------------------------------------
# Degraded reads.
# ----------------------------------------------------------------------
def test_degraded_read_returns_exact_content():
    dfs = cluster()
    writer = dfs.client(0)
    dfs.sim.run_process(writer.write_file("/f", 3 * units.MiB))
    block = dfs.namenode.file_blocks("/f")[0]
    locations = dfs.namenode.locate_block(block.block_id)
    original = dfs.datanode_by_name(locations.datanodes[0]).content_of(block.name)
    fail_both_replicas(dfs, locations)
    reader = next(
        c for c in dfs.clients if c.node.name not in locations.datanodes
    )

    def body():
        payload = yield from reader.read_block(locations)
        return payload

    payload = dfs.sim.run_process(body())
    assert payload == original
    assert reader.stats_degraded_reads == 1


def test_degraded_read_burdens_many_nodes():
    """Like an erasure-coded degraded read, the fallback moves roughly
    one block per surviving superchunk of the failed disk."""
    dfs = cluster(payload_mode="tokens")
    writer = dfs.client(0)
    dfs.sim.run_process(writer.write_file("/f", units.MiB))
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    fail_both_replicas(dfs, locations)
    reader = next(c for c in dfs.clients if c.node.name not in locations.datanodes)
    before = dfs.total_network_bytes()
    dfs.sim.run_process(reader.read_block(locations))
    moved = dfs.total_network_bytes() - before
    siblings = len(dfs.layout.superchunks_of(locations.datanodes[0]))
    assert moved == siblings * locations.block.size  # parity + N-1 siblings


def test_degraded_read_fails_without_any_lstor():
    dfs = cluster(payload_mode="tokens")
    writer = dfs.client(0)
    dfs.sim.run_process(writer.write_file("/f", units.MiB))
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    fail_both_replicas(dfs, locations)
    for name in locations.datanodes:
        dfs.datanode_by_name(name).node.alive = False  # whole servers gone
    reader = next(c for c in dfs.clients if c.node.name not in locations.datanodes)
    with pytest.raises(BlockMissingError):
        dfs.sim.run_process(reader.read_block(locations))


def test_degraded_read_refuses_a_sibling_on_an_undetected_dead_disk():
    """Detection lag: a sibling mirror's disk died but its DataNode is
    not yet declared dead.  The read cannot be assembled, and says so
    the way every read does -- ``BlockMissingError`` -- instead of
    leaking the device's ``DiskFailedError``."""
    dfs = cluster()

    def fill():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/f{index}", 4 * units.MiB)

    dfs.sim.run_process(fill())
    reader = dfs.client(0)

    def populated_sibling(locations):
        """A mirror, outside the block's own replicas, that the degraded
        read of ``locations`` must read a stored block from."""
        source = reader._pick_parity_source(locations.sc_id)
        for other_sc in dfs.layout.superchunks_of(source.name):
            if other_sc == locations.sc_id:
                continue
            name = dfs.layout.superchunk(other_sc).mirror_of(source.name)
            mirror = dfs.datanode_by_name(name)
            if (
                name not in locations.datanodes
                and block_in_slot(mirror, other_sc, locations.slot) is not None
            ):
                return mirror
        return None

    locations, victim = next(
        (loc, mirror)
        for loc in dfs.namenode.all_blocks()
        if (mirror := populated_sibling(loc)) is not None
    )
    fail_both_replicas(dfs, locations)
    victim.disk.fail()
    assert victim.alive  # not yet detected
    with pytest.raises(BlockMissingError, match=f"dead mirror {victim.name}"):
        dfs.sim.run_process(reader.degraded_read(locations))


def test_degraded_read_over_preallocated_fillers():
    """On the re-write variant's preallocated superchunks most sibling
    slots hold a filler, which has no block file: each is read at its
    slot's fixed offset, one block per sibling superchunk."""
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=5),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(update_oriented=True),
        superchunk_size=4 * units.MiB,
        payload_mode="bytes",
    )
    dfs.sim.run_process(dfs.client(0).write_file("/f", 2 * units.MiB))
    block = dfs.namenode.file_blocks("/f")[0]
    locations = dfs.namenode.locate_block(block.block_id)
    original = dfs.datanode_by_name(locations.datanodes[0]).content_of(block.name)
    fail_both_replicas(dfs, locations)
    reader = next(c for c in dfs.clients if c.node.name not in locations.datanodes)
    read_before = sum(dn.disk.stats.bytes_read for dn in dfs.datanodes)
    payload = dfs.sim.run_process(reader.degraded_read(locations))
    assert payload == original
    siblings = len(dfs.layout.superchunks_of(locations.datanodes[0])) - 1
    read = sum(dn.disk.stats.bytes_read for dn in dfs.datanodes) - read_before
    assert read == siblings * block.size


def test_normal_reads_unaffected():
    dfs = cluster(payload_mode="tokens")
    writer = dfs.client(0)

    def body():
        yield from writer.write_file("/f", 2 * units.MiB)
        total = yield from writer.read_file("/f")
        return total

    assert dfs.sim.run_process(body()) == 2 * units.MiB
    assert writer.stats_degraded_reads == 0


# ----------------------------------------------------------------------
# Write diversion.
# ----------------------------------------------------------------------
def test_frozen_superchunks_reject_new_placements():
    dfs = cluster(payload_mode="tokens", num_nodes=8, per_disk=3)
    frozen = dfs.layout.superchunks_of("n0")
    for sc_id in frozen:
        dfs.map.freeze(sc_id)
    client = dfs.client(1)
    dfs.sim.run_process(client.write_file("/f", 8 * units.MiB))
    for block in dfs.namenode.file_blocks("/f"):
        locations = dfs.namenode.locate_block(block.block_id)
        assert locations.sc_id not in frozen


def test_recovery_unfreezes_when_done():
    dfs = cluster(payload_mode="tokens", num_nodes=8, per_disk=3)

    def writers():
        procs = [
            dfs.sim.process(c.write_file(f"/f{i}", 2 * units.MiB))
            for i, c in enumerate(dfs.clients[:4])
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(writers())
    manager = RecoveryManager(dfs)
    affected = list(dfs.layout.superchunks_of("n0"))
    manager.recover(("n0",))
    assert all(not dfs.map.is_frozen(sc) for sc in affected)
    # And post-recovery writes can use the re-mirrored superchunks again.
    client = dfs.client(1)
    dfs.sim.run_process(client.write_file("/post", 4 * units.MiB))
    dfs.verify_mirrors()
