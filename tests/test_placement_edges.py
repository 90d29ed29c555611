"""Edge-case tests for placement policies and the superchunk map."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.layout import Layout, LayoutSpec, rotational_layout
from repro.core import placement as placement_module
from repro.core.placement import RaidpPlacement, SuperchunkMap
from repro.errors import CapacityError, PlacementError
from repro.hdfs.block import Block
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec

SPEC = LayoutSpec(superchunk_size=2 * units.MiB, block_size=units.MiB)


class FakeDn:
    def __init__(self, name, alive=True):
        self.name = name
        self.alive = alive


def make_placement(num_disks=4):
    layout = rotational_layout(num_disks, spec=SPEC)
    sc_map = SuperchunkMap(layout)
    return layout, sc_map, RaidpPlacement(layout, sc_map)


def block(block_id=0, size=units.MiB):
    return Block(block_id=block_id, path="/f", index=0, size=size)


def test_superchunk_map_slot_lifecycle():
    layout, sc_map, _ = make_placement()
    sc_id = next(iter(layout.superchunks))
    assert sc_map.free_slots(sc_id) == 2
    first = sc_map.allocate_slot(sc_id, "blk_a")
    second = sc_map.allocate_slot(sc_id, "blk_b")
    assert (first, second) == (0, 1)
    with pytest.raises(CapacityError):
        sc_map.allocate_slot(sc_id, "blk_c")
    sc_map.release_slot(sc_id, first)
    assert sc_map.allocate_slot(sc_id, "blk_c") == 0  # lowest free slot
    assert sc_map.block_at(sc_id, 0) == "blk_c"
    assert sc_map.blocks_in(sc_id) == {0: "blk_c", 1: "blk_b"}


def test_placement_needs_a_live_pair():
    layout, _sc_map, placement = make_placement()
    datanodes = {d: FakeDn(d, alive=(d == "d0")) for d in layout.disks}
    with pytest.raises(PlacementError):
        placement.choose_targets(block(), None, datanodes)


def test_placement_fills_cluster_to_capacity_then_fails():
    layout, sc_map, placement = make_placement(num_disks=3)
    datanodes = {d: FakeDn(d) for d in layout.disks}
    total_slots = len(layout.superchunks) * sc_map.slots_per_superchunk
    for index in range(total_slots):
        placement.choose_targets(block(index), None, datanodes)
    with pytest.raises(PlacementError):
        placement.choose_targets(block(999), None, datanodes)


def test_placement_release_returns_slot():
    layout, sc_map, placement = make_placement()
    datanodes = {d: FakeDn(d) for d in layout.disks}
    locations = placement.choose_targets(block(1), None, datanodes)
    used_before = sc_map.used_slots(locations.sc_id)
    placement.release(locations)
    assert sc_map.used_slots(locations.sc_id) == used_before - 1


def test_placement_balances_disk_load():
    layout, sc_map, placement = make_placement(num_disks=6)
    datanodes = {d: FakeDn(d) for d in layout.disks}
    for index in range(12):
        placement.choose_targets(block(index), None, datanodes)
    loads = [sc_map.load_of_disk(d) for d in layout.disks]
    assert max(loads) - min(loads) <= 1


@pytest.mark.parametrize("writer", ["d0", "d5"])
def test_placement_health_checks_do_not_grow_with_the_cluster(writer, monkeypatch):
    """A writer-local allocation asks the health predicate about the
    disks of its candidate superchunks only, once each: the count is set
    by the superchunks per disk, not by the number of DataNodes."""
    calls = []
    monkeypatch.setattr(
        placement_module, "healthy_datanode", lambda dn: calls.append(dn.name) or True
    )
    per_allocation = {}
    for num_disks in (8, 64):
        layout = rotational_layout(num_disks, superchunks_per_disk=3, spec=SPEC)
        placement = RaidpPlacement(layout, SuperchunkMap(layout))
        datanodes = {d: FakeDn(d) for d in layout.disks}
        calls.clear()
        for index in range(4):
            placement.choose_targets(block(index), writer, datanodes)
        per_allocation[num_disks] = len(calls)
    # Per call: the writer and the partners of its three superchunks.
    assert per_allocation == {8: 4 * 4, 64: 4 * 4}


def test_hdfs_placement_reads_each_datanode_health_once(monkeypatch):
    """Stock HDFS placement shuffles every healthy DataNode, so the
    number of healthy ones sets its RNG draws: one health read per
    registered DataNode per allocation is the floor a bit-exact policy
    can reach, and the policy reads no more than that."""
    from repro.hdfs import namenode as namenode_module
    from repro.hdfs.namenode import ReplicationPlacement

    calls = []
    monkeypatch.setattr(
        namenode_module, "healthy_datanode", lambda dn: calls.append(dn.name) or True
    )
    for num_nodes in (8, 64):
        registry = {f"n{i}": FakeDn(f"n{i}") for i in range(num_nodes)}
        placement = ReplicationPlacement(3)
        calls.clear()
        for index in range(4):
            placement.choose_targets(block(index), "n0", registry)
        assert sorted(calls) == sorted(list(registry) * 4)


def test_warm_allocation_reads_each_disk_slot_table_once_per_mutation(monkeypatch):
    """The superchunk map sums a disk's slots over its slot table the
    first time placement asks after a layout mutation, then tallies;
    a warm allocation reads no slot table for load."""
    import sys

    spec = LayoutSpec(superchunk_size=8 * units.MiB, block_size=units.MiB)
    layout = rotational_layout(64, superchunks_per_disk=3, spec=spec)
    placement = RaidpPlacement(layout, SuperchunkMap(layout))
    datanodes = {d: FakeDn(d) for d in layout.disks}
    reads = []
    superchunks_of = layout.superchunks_of

    def counted(disk):
        if sys._getframe(1).f_code.co_name == "load_of_disk":
            reads.append((layout.mutations, disk))
        return superchunks_of(disk)

    monkeypatch.setattr(layout, "superchunks_of", counted)
    for index in range(16):  # within d0's 3 x 8 slots: all writer-local
        placement.choose_targets(block(index), "d0", datanodes)
        if index == 7:
            layout.add_disk("spare")
    # The writer and the partners of its three superchunks, once before
    # and once after the mutation.
    assert len(reads) == len(set(reads)) == 2 * 4
    assert len({epoch for epoch, _disk in reads}) == 2


def test_raidp_cluster_rejects_oversize_block():
    from repro.errors import DfsError

    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=4),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        payload_mode="tokens",
    )
    with pytest.raises(DfsError):
        dfs.namenode.allocate_block("/missing", 2 * units.MiB)


def test_namenode_rejects_duplicate_datanode_registration():
    from repro.errors import DfsError

    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=4),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        payload_mode="tokens",
    )
    with pytest.raises(DfsError):
        dfs.namenode.register_datanode(dfs.datanodes[0])


def test_layout_render_rows_align_with_slots():
    layout = Layout(["a", "b", "c"], SPEC)
    layout.add_superchunk("a", "b")
    layout.add_superchunk("b", "c")
    art = layout.render()
    lines = art.splitlines()
    assert lines[0].split() == ["a", "b", "c"]
    assert len(lines) == 3  # header + two slot rows (disk b holds 2)
