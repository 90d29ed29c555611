"""Integration tests for the RAIDP write path (placement, parity, journal)."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def small_raidp(
    num_nodes=5,
    block_size=units.MiB,
    superchunk_blocks=4,
    **raidp_kwargs,
):
    config = DfsConfig(
        block_size=block_size, packet_size=64 * units.KiB, replication=2
    )
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=config,
        raidp=RaidpConfig(**raidp_kwargs),
        superchunk_size=superchunk_blocks * block_size,
    )


def test_blocks_placed_on_sharing_pairs():
    dfs = small_raidp()
    client = dfs.client(0)
    dfs.sim.run_process(client.write_file("/f", 6 * units.MiB))
    for block in dfs.namenode.file_blocks("/f"):
        locations = dfs.namenode.locate_block(block.block_id)
        assert locations.replica_count == 2
        assert locations.sc_id is not None
        sc = dfs.layout.superchunk(locations.sc_id)
        assert set(locations.datanodes) == set(sc.disks)


def test_mirrors_hold_identical_content():
    dfs = small_raidp()
    client = dfs.client(0)
    dfs.sim.run_process(client.write_file("/f", 8 * units.MiB))
    dfs.verify_mirrors()


def test_parity_consistent_after_writes():
    dfs = small_raidp()
    client = dfs.client(0)
    dfs.sim.run_process(client.write_file("/f", 8 * units.MiB))
    dfs.verify_parity()


def test_parity_consistent_after_rewrites():
    dfs = small_raidp(update_oriented=True)
    client = dfs.client(0)

    def body():
        yield from client.write_file("/f", 4 * units.MiB)
        yield from client.rewrite_file("/f")
        yield from client.rewrite_file("/f")

    dfs.sim.run_process(body())
    dfs.verify_parity()
    dfs.verify_mirrors()


def test_parity_consistent_after_delete_and_reuse():
    dfs = small_raidp()
    client = dfs.client(0)

    def body():
        yield from client.write_file("/a", 4 * units.MiB)
        yield from client.delete_file("/a")
        yield from client.write_file("/b", 4 * units.MiB)

    dfs.sim.run_process(body())
    dfs.verify_parity()


def test_journals_drain_after_writes():
    dfs = small_raidp()
    client = dfs.client(0)
    dfs.sim.run_process(client.write_file("/f", 8 * units.MiB))
    assert dfs.journals_empty()
    for datanode in dfs.datanodes:
        journal = datanode.lstors.journal
        assert journal.total_appends == journal.total_clears


def test_journal_outstanding_stays_small():
    """The paper observes at most one or two outstanding records."""
    dfs = small_raidp()

    def body():
        procs = [
            dfs.sim.process(c.write_file(f"/f{i}", 4 * units.MiB))
            for i, c in enumerate(dfs.clients)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(body())
    for datanode in dfs.datanodes:
        gauge = datanode.lstors.journal.outstanding_gauge
        # Bounded by the number of concurrent writers targeting the node,
        # and small on time-weighted average (the paper observes 1-2).
        assert gauge.max_value <= len(dfs.clients)
        assert gauge.average(dfs.sim.now) <= 2.0


def test_preallocation_fills_slots_and_parity():
    dfs = small_raidp(update_oriented=True)
    dfs.verify_parity()
    datanode = dfs.datanodes[0]
    sc_id = dfs.layout.superchunks_of(datanode.name)[0]
    assert not datanode.slot_payload(sc_id, 0).is_zero()


def test_update_oriented_reads_before_write():
    """The re-write variant must read old data: 2 reads + 2 writes per
    block across the two replicas (the paper's 4-I/O argument)."""
    dfs = small_raidp(update_oriented=True)
    client = dfs.client(0)
    before_reads = sum(dn.disk.stats.reads for dn in dfs.datanodes)
    dfs.sim.run_process(client.write_file("/f", 4 * units.MiB))
    reads = sum(dn.disk.stats.reads for dn in dfs.datanodes) - before_reads
    blocks = len(dfs.namenode.file_blocks("/f"))
    assert reads == 2 * blocks


def test_base_variant_never_reads_before_write():
    dfs = small_raidp(update_oriented=False)
    client = dfs.client(0)
    dfs.sim.run_process(client.write_file("/f", 8 * units.MiB))
    assert all(dn.disk.stats.reads == 0 for dn in dfs.datanodes)


def test_network_volume_is_one_replica_copy():
    """RAIDP halves network volume vs triplication: one remote copy per
    block (plus tiny acks)."""
    dfs = small_raidp()
    client = dfs.client(0)
    nbytes = 8 * units.MiB
    dfs.sim.run_process(client.write_file("/f", nbytes))
    traffic = dfs.total_network_bytes()
    assert nbytes <= traffic < nbytes * 1.01  # data + acks only


def test_unoptimized_streaming_is_much_slower():
    runtimes = {}
    for optimized in (True, False):
        dfs = small_raidp(optimized=optimized)

        def writers(dfs=dfs):
            procs = [
                dfs.sim.process(c.write_file(f"/f{i}", 4 * units.MiB))
                for i, c in enumerate(dfs.clients[:2])
            ]
            yield dfs.sim.all_of(procs)

        dfs.sim.run_process(writers())
        runtimes[optimized] = dfs.sim.now
    assert runtimes[False] > 5 * runtimes[True]


def test_writer_lock_prevents_ping_pong_seeks():
    seeks = {}
    for optimized in (True, False):
        dfs = small_raidp(optimized=optimized)

        def writers(dfs=dfs):
            procs = [
                dfs.sim.process(c.write_file(f"/f{i}", 4 * units.MiB))
                for i, c in enumerate(dfs.clients[:3])
            ]
            yield dfs.sim.all_of(procs)

        dfs.sim.run_process(writers())
        seeks[optimized] = sum(dn.disk.stats.seeks for dn in dfs.datanodes)
    assert seeks[False] > seeks[True]


def test_raidp_forces_two_replicas():
    config = DfsConfig(block_size=units.MiB, replication=3)
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=4),
        config=config,
        superchunk_size=4 * units.MiB,
    )
    assert dfs.config.replication == 2


def test_journal_requires_parity():
    with pytest.raises(ValueError):
        RaidpConfig(enable_parity=False, enable_journal=True)


def test_ablation_configs_run():
    for parity, journal in ((False, False), (True, False), (True, True)):
        dfs = small_raidp(enable_parity=parity, enable_journal=journal)
        client = dfs.client(0)
        dfs.sim.run_process(client.write_file("/f", 4 * units.MiB))
        if parity:
            dfs.verify_parity()


def test_read_after_write_roundtrip():
    dfs = small_raidp()
    client = dfs.client(0)

    def body():
        yield from client.write_file("/f", 6 * units.MiB)
        total = yield from client.read_file("/f")
        return total

    assert dfs.sim.run_process(body()) == 6 * units.MiB
