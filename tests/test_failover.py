"""Mid-flight failover tests: pipeline death, read failover, stacked
failures during recovery, journal capacity edges, and rejoin."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.journal import Journal
from repro.core.monitor import ClusterMonitor, MonitorConfig
from repro.errors import JournalError
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def cluster(num_nodes=8, per_disk=3, payload_mode="bytes"):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=DfsConfig(
            block_size=units.MiB,
            replication=2,
            read_retries=3,
            read_backoff=0.01,
        ),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=per_disk,
        payload_mode=payload_mode,
    )


def expected_payload(dfs, locations):
    block = locations.block
    return dfs.clients[0].factory.make(block.name, locations.version, block.size)


# ----------------------------------------------------------------------
# Mid-write pipeline death.
# ----------------------------------------------------------------------
def test_write_survives_pipeline_member_death():
    dfs = cluster()
    client = dfs.clients[0]
    dfs.namenode.create_file("/f")
    locations = dfs.namenode.allocate_block("/f", units.MiB, writer=client.node.name)
    assert len(locations.datanodes) == 2
    victim_name = locations.datanodes[1]

    def killer():
        yield dfs.sim.timeout(1e-4)  # mid-stream, after the write began
        dfs.datanode_by_name(victim_name).disk.fail()

    def writer():
        yield from client.write_block(locations)

    write = dfs.sim.process(writer(), name="writer")
    dfs.sim.process(killer(), name="killer")
    dfs.sim.run()
    assert write.triggered
    assert client.stats_pipeline_recoveries == 1
    # The dead member was dropped and reported; the block completed short.
    assert victim_name not in locations.datanodes
    assert dfs.namenode.pipeline_failures == [("blk_0", (victim_name,))]
    assert locations in dfs.namenode.under_replicated()
    # The surviving replica holds bit-exact content.
    survivor = dfs.datanode_by_name(locations.datanodes[0])
    assert survivor.content_of("blk_0") == expected_payload(dfs, locations)


def test_write_fails_only_when_every_replica_dies():
    from repro.errors import DfsError

    dfs = cluster()
    client = dfs.clients[0]
    dfs.namenode.create_file("/f")
    locations = dfs.namenode.allocate_block("/f", units.MiB, writer=client.node.name)
    targets = list(locations.datanodes)

    def killer():
        yield dfs.sim.timeout(1e-4)
        for name in targets:
            dfs.datanode_by_name(name).disk.fail()

    def writer():
        with pytest.raises(DfsError):
            yield from client.write_block(locations)

    write = dfs.sim.process(writer(), name="writer")
    dfs.sim.process(killer(), name="killer")
    dfs.sim.run()
    assert write.triggered


# ----------------------------------------------------------------------
# Mid-read replica death with failover.
# ----------------------------------------------------------------------
def test_read_fails_over_to_surviving_replica():
    dfs = cluster()
    client = dfs.clients[0]
    dfs.sim.run_process(client.write_file("/f", units.MiB))
    locations = dfs.namenode.locate_block(0)
    # The writer-local replica is first; force the read to start there,
    # then kill it mid-transfer so the client must fail over.
    local_name = locations.datanodes[0]
    assert dfs.datanode_by_name(local_name).node is client.node

    def killer():
        yield dfs.sim.timeout(1e-4)
        dfs.datanode_by_name(local_name).disk.fail()

    got = {}

    def reader():
        got["payload"] = yield from client.read_block(locations, prefer_local=True)

    read = dfs.sim.process(reader(), name="reader")
    dfs.sim.process(killer(), name="killer")
    dfs.sim.run()
    assert read.triggered
    assert client.stats_read_failovers >= 1
    assert got["payload"] == expected_payload(dfs, locations)


# ----------------------------------------------------------------------
# Double failure during an in-flight single recovery.
# ----------------------------------------------------------------------
def test_double_failure_during_inflight_single_recovery():
    dfs = cluster(num_nodes=10)

    def seed():
        procs = [
            dfs.sim.process(
                dfs.clients[i % len(dfs.clients)].write_file(f"/f{i}", 2 * units.MiB)
            )
            for i in range(8)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(seed())
    monitor = ClusterMonitor(
        dfs, MonitorConfig(heartbeat_interval=0.5, dead_after=2.0, sweep_interval=0.5)
    )
    single = dfs.datanodes[0].name
    pair = next(
        (x, y)
        for x in dfs.layout.disks
        for y in dfs.layout.disks
        if x < y
        and single not in (x, y)
        and dfs.layout.shared(x, y) is not None
    )

    def scenario():
        yield dfs.sim.timeout(2.0)
        dfs.datanode_by_name(single).disk.fail()
        # Wait until the single failure's recovery is actually running,
        # then kill a sharing pair out from under it.
        while not monitor.recoveries or monitor.recoveries[0].triggered:
            yield dfs.sim.timeout(0.1)
        for name in pair:
            dfs.datanode_by_name(name).disk.fail()
        yield dfs.sim.timeout(60.0)

    monitor.start()
    done = dfs.sim.process(scenario(), name="scenario")
    dfs.sim.run(until=120.0)
    assert done.triggered
    monitor.stop()
    dfs.sim.run()

    covered = {name for report in monitor.reports for name in report.failed_disks}
    assert single in covered
    assert set(pair) <= covered
    # Three overlapping failures exceed the 2-failure design point: the
    # pair's shared superchunk is either reconstructed (when its XOR
    # chain survived) or recorded as lost -- never silently dropped --
    # and the singly-lost superchunks around it are still salvaged.
    pair_report = next(
        r for r in monitor.reports if set(r.failed_disks) == set(pair)
    )
    assert pair_report.reconstructed_sc is not None or pair_report.lost_superchunks
    assert pair_report.remirrored
    # Every surviving block replica is bit-exact.
    dfs.verify_mirrors()


# ----------------------------------------------------------------------
# Journal capacity edges.
# ----------------------------------------------------------------------
def payloads(factory, name, nbytes):
    old = factory.make(name, 1, nbytes)
    new = factory.make(name, 2, nbytes)
    return old, new


def test_journal_strict_capacity_overflow():
    from repro.storage.payload import ContentFactory

    factory = ContentFactory("tokens")
    journal = Journal(capacity=2 * units.MiB, strict_capacity=True)
    old, new = payloads(factory, "blk_a", units.MiB)
    first = journal.append("blk_a", 0, 0, old, new, units.MiB, now=0.0)
    journal.append("blk_b", 0, 1, old, new, units.MiB, now=0.0)
    with pytest.raises(JournalError):
        journal.append("blk_c", 0, 2, old, new, units.MiB, now=0.0)
    assert journal.overflows == 0  # strict mode raises instead of counting
    # Clearing a record frees its space for a new append.
    journal.mark_committed(first.record_id)
    journal.mark_acked(first.record_id)
    journal.clear(first.record_id, now=1.0)
    journal.append("blk_c", 0, 2, old, new, units.MiB, now=1.0)
    assert journal.outstanding == 2


def test_journal_soft_capacity_counts_overflows():
    from repro.storage.payload import ContentFactory

    factory = ContentFactory("tokens")
    journal = Journal(capacity=units.MiB, strict_capacity=False)
    old, new = payloads(factory, "blk_a", units.MiB)
    journal.append("blk_a", 0, 0, old, new, units.MiB, now=0.0)
    journal.append("blk_b", 0, 1, old, new, units.MiB, now=0.0)
    assert journal.overflows == 1
    assert journal.high_water_bytes == 2 * units.MiB


# ----------------------------------------------------------------------
# Heartbeats and rejoin edges.
# ----------------------------------------------------------------------
class _BareCluster:
    """A cluster facade with no clients and no NameNode endpoint --
    the degenerate shape that used to crash the heartbeat loop."""

    def __init__(self, dfs):
        self.sim = dfs.sim
        self.switch = dfs.switch
        self.config = dfs.config
        self.namenode = dfs.namenode
        self.datanodes = dfs.datanodes
        self.layout = dfs.layout
        self.clients = []


def test_heartbeats_survive_clientless_cluster():
    dfs = cluster(payload_mode="tokens")
    monitor = ClusterMonitor(_BareCluster(dfs))
    monitor.start()
    dfs.sim.run(until=10.0)
    monitor.stop()
    dfs.sim.run()
    for datanode in dfs.datanodes:
        assert monitor.last_heartbeat(datanode.name) > 5.0
    assert monitor.detected == []


def test_rejoined_wiped_disk_reenters_layout():
    dfs = cluster()

    def seed():
        yield from dfs.clients[0].write_file("/f", 2 * units.MiB)

    dfs.sim.run_process(seed())
    monitor = ClusterMonitor(
        dfs, MonitorConfig(heartbeat_interval=0.5, dead_after=2.0, sweep_interval=0.5)
    )
    victim = dfs.datanodes[0]

    def scenario():
        yield dfs.sim.timeout(2.0)
        victim.node.fail()
        yield dfs.sim.timeout(20.0)  # detection + recovery re-home its data
        victim.node.restart()
        monitor.rejoin(victim)
        yield dfs.sim.timeout(10.0)

    monitor.start()
    done = dfs.sim.process(scenario(), name="scenario")
    dfs.sim.run(until=80.0)
    assert done.triggered
    monitor.stop()
    dfs.sim.run()

    assert any(name == victim.name for _t, name in monitor.rejoined)
    assert victim.name not in monitor._handled
    # The wiped replacement disk is back in the layout, empty, and is a
    # legal receiver again.
    assert victim.name in dfs.layout.disks
    assert dfs.layout.superchunks_of(victim.name) == []
    # Its staleness clock restarted: no immediate re-detection occurred.
    assert sum(1 for _t, names in monitor.detected if victim.name in names) == 1
