"""Tests for bit-rot injection, scrubbing, and both repair paths."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.scrubber import Scrubber, corrupt_block
from repro.errors import DataLossError, RecoveryError
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def cluster(payload_mode="bytes", num_nodes=5):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        payload_mode=payload_mode,
    )


def write_and_pick_block(dfs, path="/f", size=3 * units.MiB):
    dfs.sim.run_process(dfs.client(0).write_file(path, size))
    block = dfs.namenode.file_blocks(path)[0]
    locations = dfs.namenode.locate_block(block.block_id)
    victim = dfs.datanode_by_name(locations.datanodes[0])
    return block, locations, victim


def test_corruption_breaks_checksum_only_locally():
    dfs = cluster()
    block, locations, victim = write_and_pick_block(dfs)
    corrupt_block(victim, block.name)
    assert not victim.content_checksum_ok(block.name)
    mirror = dfs.datanode_by_name(locations.datanodes[1])
    assert mirror.content_checksum_ok(block.name)


def test_scan_detects_and_repairs_from_mirror():
    dfs = cluster()
    block, _locations, victim = write_and_pick_block(dfs)
    corrupt_block(victim, block.name)
    scrubber = Scrubber(dfs)
    report = dfs.sim.run_process(scrubber.scan(victim, source="mirror"))
    assert report.corrupt == [block.name]
    assert report.repaired == [block.name]
    assert victim.content_checksum_ok(block.name)
    dfs.verify_mirrors()
    dfs.verify_parity()


def test_scan_clean_node_reports_nothing():
    dfs = cluster(payload_mode="tokens")
    _block, _locations, victim = write_and_pick_block(dfs)
    scrubber = Scrubber(dfs)
    report = dfs.sim.run_process(scrubber.scan(victim))
    assert report.scanned >= 1
    assert report.corrupt == []
    assert report.duration > 0


def test_repair_from_local_parity_is_network_free():
    dfs = cluster()
    block, locations, victim = write_and_pick_block(dfs, size=4 * units.MiB)
    corrupt_block(victim, block.name)
    before = dfs.total_network_bytes()
    scrubber = Scrubber(dfs)
    dfs.sim.run_process(scrubber.repair(victim, locations, source="local_parity"))
    assert dfs.total_network_bytes() == before  # zero network
    assert victim.content_checksum_ok(block.name)
    dfs.verify_mirrors()
    dfs.verify_parity()


def test_local_parity_repair_over_preallocated_fillers():
    """The re-write variant's sibling slots hold fillers with no block
    file; the local repair reads them at their fixed offsets."""
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=5),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(update_oriented=True),
        superchunk_size=4 * units.MiB,
        payload_mode="bytes",
    )
    block, locations, victim = write_and_pick_block(dfs, size=2 * units.MiB)
    corrupt_block(victim, block.name)
    read_before = victim.disk.stats.bytes_read
    scrubber = Scrubber(dfs)
    dfs.sim.run_process(scrubber.repair(victim, locations, source="local_parity"))
    assert victim.content_checksum_ok(block.name)
    siblings = len(dfs.layout.superchunks_of(victim.name)) - 1
    assert victim.disk.stats.bytes_read - read_before == siblings * block.size
    dfs.verify_mirrors()
    dfs.verify_parity()


def test_mirror_repair_moves_one_block_over_network():
    dfs = cluster()
    block, locations, victim = write_and_pick_block(dfs)
    corrupt_block(victim, block.name)
    before = dfs.total_network_bytes()
    scrubber = Scrubber(dfs)
    dfs.sim.run_process(scrubber.repair(victim, locations, source="mirror"))
    assert dfs.total_network_bytes() - before == block.size


def test_both_replicas_rotten_is_data_loss():
    dfs = cluster()
    block, locations, victim = write_and_pick_block(dfs)
    mirror = dfs.datanode_by_name(locations.datanodes[1])
    corrupt_block(victim, block.name, seed=1)
    corrupt_block(mirror, block.name, seed=2)
    scrubber = Scrubber(dfs)
    with pytest.raises(DataLossError):
        dfs.sim.run_process(scrubber.repair(victim, locations, source="mirror"))


def test_local_parity_repair_detects_unfixable_rot():
    """If the parity itself cannot reproduce the checksum (e.g. the rot
    hit after an unjournaled parity drift), the scrubber must not install
    garbage."""
    dfs = cluster()
    block, locations, victim = write_and_pick_block(dfs)
    corrupt_block(victim, block.name)
    # Sabotage the parity so reconstruction cannot match the checksum.
    victim.lstors.primary.absorb(
        locations.slot, dfs.factory.make("sabotage", 1, block.size)
    )
    scrubber = Scrubber(dfs)
    with pytest.raises(DataLossError):
        dfs.sim.run_process(
            scrubber.repair(victim, locations, source="local_parity")
        )


def test_unknown_repair_source_rejected():
    dfs = cluster(payload_mode="tokens")
    block, locations, victim = write_and_pick_block(dfs)
    scrubber = Scrubber(dfs)
    with pytest.raises(ValueError):
        dfs.sim.run_process(scrubber.repair(victim, locations, source="prayer"))


def test_token_mode_scrubbing_works():
    dfs = cluster(payload_mode="tokens")
    block, _locations, victim = write_and_pick_block(dfs)
    corrupt_block(victim, block.name)
    scrubber = Scrubber(dfs)
    report = dfs.sim.run_process(scrubber.scan(victim, source="mirror"))
    assert report.repaired == [block.name]
    dfs.verify_mirrors()
