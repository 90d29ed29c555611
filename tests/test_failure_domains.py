"""Tests for failure-domain-aware layouts and multi-disk servers (§3.1)."""

import itertools

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.layout import Layout, LayoutSpec, domain_aware_layout
from repro.core.monitor import ClusterMonitor
from repro.core.recovery import RecoveryManager
from repro.errors import CapacityError, LayoutError
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec

SPEC = LayoutSpec(superchunk_size=4 * units.MiB, block_size=units.MiB)


def domains(servers=4, disks=3):
    return {
        f"s{server}-d{disk}": f"s{server}"
        for server in range(servers)
        for disk in range(disks)
    }


# ----------------------------------------------------------------------
# Domain constraints on Layout.
# ----------------------------------------------------------------------
def test_same_domain_pairing_rejected():
    layout = Layout(["a-0", "a-1", "b-0"], SPEC, domains={"a-0": "a", "a-1": "a", "b-0": "b"})
    with pytest.raises(LayoutError, match="failure domain"):
        layout.add_superchunk("a-0", "a-1")
    layout.add_superchunk("a-0", "b-0")  # cross-domain is fine
    assert not layout.can_pair("a-0", "a-1")


def test_domains_must_cover_all_disks():
    with pytest.raises(LayoutError):
        Layout(["x", "y"], SPEC, domains={"x": "a"})


def test_remirror_respects_domains():
    disk_map = {"a-0": "a", "a-1": "a", "b-0": "b", "c-0": "c"}
    layout = Layout(list(disk_map), SPEC, domains=disk_map)
    sc = layout.add_superchunk("a-0", "b-0")
    layout.remove_disk("b-0")
    with pytest.raises(LayoutError, match="failure domain"):
        layout.remirror(sc.sc_id, "a-1")
    layout.remirror(sc.sc_id, "c-0")
    layout.verify()


def test_domain_aware_layout_builder():
    layout = domain_aware_layout(domains(servers=4, disks=3), superchunks_per_disk=4, spec=SPEC)
    layout.verify()
    for disk in layout.disks:
        assert len(layout.superchunks_of(disk)) == 4
    for sc in layout.superchunks.values():
        a, b = sorted(sc.disks)
        assert layout.domain_of(a) != layout.domain_of(b)
    # 1-sharing across the whole fleet.
    for a, b in itertools.combinations(layout.disks, 2):
        shared = [s for s in layout.superchunks.values() if s.disks == frozenset((a, b))]
        assert len(shared) <= 1


def test_domain_aware_layout_needs_two_domains():
    with pytest.raises(LayoutError):
        domain_aware_layout({"x-0": "x", "x-1": "x"}, 1, spec=SPEC)


def test_domain_aware_layout_capacity_error():
    # Two domains x 1 disk: each disk can host at most 1 superchunk pair.
    with pytest.raises(CapacityError):
        domain_aware_layout({"a-0": "a", "b-0": "b"}, 3, spec=SPEC)


# ----------------------------------------------------------------------
# Multi-disk RAIDP clusters.
# ----------------------------------------------------------------------
def multi_disk_cluster(num_nodes=4, disks_per_node=3, per_disk=4):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes, disks_per_node=disks_per_node),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=per_disk,
    )


def test_multi_disk_cluster_requires_explicit_density():
    with pytest.raises(LayoutError):
        RaidpCluster(
            spec=ClusterSpec(num_nodes=4, disks_per_node=2),
            config=DfsConfig(block_size=units.MiB, replication=2),
            superchunk_size=4 * units.MiB,
        )


def test_multi_disk_cluster_writes_and_verifies():
    dfs = multi_disk_cluster()
    assert len(dfs.datanodes) == 12  # 4 servers x 3 disks
    client = dfs.client(0)
    dfs.sim.run_process(client.write_file("/f", 8 * units.MiB))
    dfs.verify_mirrors()
    dfs.verify_parity()
    # Replicas always span servers, never two disks of one box.
    for block in dfs.namenode.file_blocks("/f"):
        loc = dfs.namenode.locate_block(block.block_id)
        servers = {dfs.layout.domain_of(n) for n in loc.datanodes}
        assert len(servers) == 2


def test_writer_local_replica_on_multi_disk_server():
    dfs = multi_disk_cluster()
    client = dfs.client(2)  # runs on server n2
    dfs.sim.run_process(client.write_file("/f", 4 * units.MiB))
    local = 0
    for block in dfs.namenode.file_blocks("/f"):
        loc = dfs.namenode.locate_block(block.block_id)
        if dfs.layout.domain_of(loc.datanodes[0]) == "n2":
            local += 1
    assert local >= 1  # the preference holds when capacity allows


def test_whole_server_failure_loses_nothing():
    """The payoff of domain awareness: a server failure (all its disks)
    destroys no superchunk -- recovery is pure re-replication, with no
    Lstor reconstruction needed (paper §3.3's 12-disk example)."""
    dfs = multi_disk_cluster(num_nodes=5, disks_per_node=2, per_disk=3)

    def writers():
        procs = [
            dfs.sim.process(c.write_file(f"/f{i}", 3 * units.MiB))
            for i, c in enumerate(dfs.clients)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(writers())
    victim_node = dfs.cluster.nodes[0]
    victim_dns = [dn.name for dn in dfs.datanodes if dn.node is victim_node]
    # No two disks of one server ever share a superchunk...
    for a in victim_dns:
        for b in victim_dns:
            if a < b:
                assert dfs.layout.shared(a, b) is None
    victim_node.fail()
    manager = RecoveryManager(dfs)
    reports = [manager.recover((name,)) for name in victim_dns]
    # ...so every recovery is plain re-replication.
    assert not any(r.reconstructed for r in reports)
    assert dfs.layout.is_fully_mirrored
    dfs.verify_mirrors()
    dfs.verify_parity()


def test_monitor_handles_server_failure_without_reconstruction():
    dfs = multi_disk_cluster(num_nodes=5, disks_per_node=2, per_disk=3)

    def writers():
        procs = [
            dfs.sim.process(c.write_file(f"/f{i}", 2 * units.MiB))
            for i, c in enumerate(dfs.clients)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(writers())
    monitor = ClusterMonitor(dfs)
    monitor.start()

    def scenario():
        yield dfs.sim.timeout(5.0)
        dfs.cluster.nodes[1].fail()
        yield dfs.sim.timeout(90.0)

    done = dfs.sim.process(scenario())
    dfs.sim.run(until=200.0)
    assert done.triggered
    monitor.stop()
    dfs.sim.run()
    assert monitor.reports
    assert not any(r.reconstructed for r in monitor.reports)
    dfs.verify_mirrors()
    dfs.verify_parity()
