"""Differential tests: production block placement vs its oracles.

``RaidpPlacement.choose_targets`` reads its writer-local candidates off
the writer's own slot tables, scans the cluster only when none of them
is eligible, and reads disk loads off the superchunk map's tally.
:class:`tests.oracles.FullScanPlacement` lists every eligible
superchunk and sums every load on every call.  Hypothesis drives both
through the same random history -- writes, releases, freezes, dead
DataNodes, disk removal, remirror and its rollback, empty rejoin,
superchunks filled to capacity -- on single- and multi-disk servers;
after every placement the chosen ``BlockLocations`` and the RNG state
must be identical, and after every op the tally must equal the sum.

``ReplicationPlacement`` (stock HDFS) reads the registry in place and
shuffles through an inlined ``_shuffle``;
:class:`tests.oracles.RosterCopyPlacement` is its body as it was.  The
same holds for them over histories of health flips, late registrations
and every kind of writer.
"""

import random
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.layout import (
    LayoutSpec,
    domain_aware_layout,
    rotational_layout,
)
from repro.core.placement import RaidpPlacement, SuperchunkMap
from repro.errors import LayoutError, PlacementError, ReproError
from repro.hdfs.block import Block
from repro.hdfs.config import DfsConfig
from repro.hdfs.namenode import ReplicationPlacement, _shuffle
from repro.sim.cluster import ClusterSpec
from tests.oracles import FullScanPlacement, RosterCopyPlacement

SPEC = LayoutSpec(superchunk_size=2 * units.MiB, block_size=units.MiB)


class FakeDn:
    def __init__(self, name):
        self.name = name
        self.alive = True


class World:
    """One layout + map + placement policy, driven by index-coded ops."""

    def __init__(self, policy, multi_disk):
        if multi_disk:
            domains = {f"n{n}-d{d}": f"n{n}" for n in range(4) for d in range(2)}
            self.layout = domain_aware_layout(domains, 3, spec=SPEC)
            self.writers = [None, "client"] + sorted(set(domains.values())) + ["n1-d0"]
        else:
            self.layout = rotational_layout(
                7, superchunks_per_disk=3, spec=SPEC, disk_names=[f"n{i}" for i in range(7)]
            )
            self.writers = [None, "client"] + self.layout.disks
        self.all_disks = self.layout.disks
        self.map = SuperchunkMap(self.layout)
        self.placement = policy(self.layout, self.map, seed=7)
        self.datanodes = {d: FakeDn(d) for d in self.all_disks}
        self.placed = []
        self.remirrors = []  # (pre-remirror record, receiver), newest last
        self.next_block = 0

    def apply(self, op, a, b):
        """Run one op; returns what a differential should compare."""
        layout = self.layout
        sc_ids = sorted(layout.superchunks)
        sc_id = sc_ids[a % len(sc_ids)]
        disk = self.all_disks[b % len(self.all_disks)]
        if op == "write":
            block = Block(self.next_block, "/f", 0, units.MiB)
            self.next_block += 1
            try:
                locations = self.placement.choose_targets(
                    block, self.writers[a % len(self.writers)], self.datanodes
                )
            except PlacementError:
                locations = None
            else:
                self.placed.append(locations)
            return locations, self.placement._rng.getstate()
        if op == "release" and self.placed:
            self.placement.release(self.placed.pop(a % len(self.placed)))
        elif op == "freeze":
            self.map.freeze(sc_id)
        elif op == "unfreeze":
            self.map.unfreeze(sc_id)
        elif op == "fill":
            while self.map.free_slots(sc_id):
                self.map.allocate_slot(sc_id, f"filler_{sc_id}")
        elif op == "flip":
            datanode = self.datanodes[self.all_disks[b % len(self.all_disks)]]
            datanode.alive = not datanode.alive
        elif op == "remove" and layout.has_disk(disk) and len(layout.disks) > 3:
            layout.remove_disk(disk)
        elif op == "add" and not layout.has_disk(disk):
            layout.add_disk(disk)
        elif op == "remirror" and layout.has_disk(disk):
            previous = layout.superchunk(sc_id)
            try:
                layout.remirror(sc_id, disk)
            except ReproError:
                return None
            self.remirrors.append((previous, disk))
        elif op == "rollback" and self.remirrors:
            previous, receiver = self.remirrors.pop()
            if layout.superchunk(previous.sc_id).disks != previous.disks:
                layout.restore_superchunk(previous, receiver)
        return None


OPS = st.tuples(
    st.sampled_from(
        ["write"] * 6
        + ["release", "freeze", "unfreeze", "fill", "flip"]
        + ["remove", "add", "remirror", "remirror", "rollback"]
    ),
    st.integers(0, 63),
    st.integers(0, 63),
)


@pytest.mark.parametrize("multi_disk", [False, True], ids=["one-disk", "multi-disk"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=st.lists(OPS, min_size=1, max_size=60))
def test_writer_index_matches_full_scan(multi_disk, ops):
    indexed = World(RaidpPlacement, multi_disk)
    scanned = World(FullScanPlacement, multi_disk)
    for op in ops:
        assert indexed.apply(*op) == scanned.apply(*op), op
        # Every load the tally keeps is the sum over the disk's slot
        # table.  Read without filling it, so a partial tally -- the
        # disks placement asked about since the last mutation -- is what
        # the next slot claim or release has to keep current.
        for disk, load in indexed.map._tally().items():
            assert load == _summed_load(indexed, disk), (op, disk)
    for disk in indexed.layout.disks:
        assert indexed.map.load_of_disk(disk) == _summed_load(indexed, disk)
    indexed.layout.verify()


def _summed_load(world, disk):
    return sum(map(world.map.used_slots, world.layout.superchunks_of(disk)))


# ----------------------------------------------------------------------
# Named is not held: the empty-rejoin orphan.
# ----------------------------------------------------------------------
def _rejoined_empty():
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(replication=2, block_size=units.MiB),
        superchunk_size=2 * units.MiB,
        superchunks_per_disk=2,
        payload_mode="tokens",
    )
    orphans = dfs.layout.remove_disk("n0")
    dfs.layout.add_disk("n0")
    assert orphans and dfs.layout.superchunks_of("n0") == []
    return dfs, orphans


def test_placement_skips_superchunks_the_writer_no_longer_holds():
    """A wiped node that rejoined is still *named* by the superchunks it
    lost; placing a block there would advertise a replica slot on a disk
    that holds no such superchunk."""
    dfs, orphans = _rejoined_empty()
    lost = {sc.sc_id for sc in orphans}
    for index in range(3 * len(dfs.layout.superchunks)):
        block = Block(index, "/f", 0, units.MiB)
        try:
            locations = dfs.placement.choose_targets(block, "n0", dfs.namenode._datanodes)
        except PlacementError:
            break
        assert locations.sc_id not in lost
        assert "n0" not in locations.datanodes


def test_load_tally_skips_superchunks_the_writer_no_longer_holds():
    """A slot claimed or released in a superchunk that still *names* the
    rejoined disk loads only the disk that holds it."""
    dfs, orphans = _rejoined_empty()
    orphan = orphans[0]
    survivor = orphan.mirror_of("n0")
    before = dfs.map.load_of_disk(survivor)
    assert dfs.map.load_of_disk("n0") == 0
    slot = dfs.map.allocate_slot(orphan.sc_id, "blk_orphan")
    assert (dfs.map.load_of_disk("n0"), dfs.map.load_of_disk(survivor)) == (0, before + 1)
    dfs.map.release_slot(orphan.sc_id, slot)
    assert (dfs.map.load_of_disk("n0"), dfs.map.load_of_disk(survivor)) == (0, before)


def test_verify_classifies_the_empty_rejoin_orphan_as_singly_homed():
    dfs, orphans = _rejoined_empty()
    dfs.layout.verify()  # a verdict, not an IndexError
    assert not dfs.layout.is_fully_mirrored
    orphan = orphans[0]
    survivor = orphan.mirror_of("n0")
    assert dfs.layout.holds(survivor, orphan.sc_id)
    assert not dfs.layout.holds("n0", orphan.sc_id)
    with pytest.raises(LayoutError):
        dfs.layout.superchunks_of("gone")


# ----------------------------------------------------------------------
# Stock HDFS placement: the in-place roster vs the copying body.
# ----------------------------------------------------------------------
def _fake_datanode(name):
    """A DataNode stand-in carrying all three health inputs."""
    return SimpleNamespace(
        name=name,
        alive=True,
        disk=SimpleNamespace(failed=False),
        node=SimpleNamespace(alive=True),
    )


class Roster:
    """One registry + HDFS placement policy, driven by index-coded ops."""

    def __init__(self, policy, replication):
        self.registry = {}
        for index in range(6):
            self.register(f"n{index}")
        self.placement = policy(replication, seed=11)
        self.next_block = 0

    def register(self, name):
        self.registry[name] = _fake_datanode(name)

    def apply(self, op, a, b):
        names = list(self.registry)
        name = names[b % len(names)]
        if op == "write":
            # Writer present (and maybe unhealthy), absent, unregistered.
            writers = [None, "client"] + names
            block = Block(self.next_block, "/f", 0, units.MiB)
            self.next_block += 1
            try:
                locations = self.placement.choose_targets(
                    block, writers[a % len(writers)], self.registry
                )
            except PlacementError:
                locations = None
            return locations, self.placement._rng.getstate()
        datanode = self.registry[name]
        if op == "flip-datanode":
            datanode.alive = not datanode.alive
        elif op == "flip-disk":
            datanode.disk.failed = not datanode.disk.failed
        elif op == "flip-node":
            datanode.node.alive = not datanode.node.alive
        elif op == "register" and len(names) < 40:
            self.register(f"late{len(names)}")
        return None


ROSTER_OPS = st.tuples(
    st.sampled_from(
        ["write"] * 6 + ["flip-datanode", "flip-disk", "flip-node", "register"]
    ),
    st.integers(0, 63),
    st.integers(0, 63),
)


@pytest.mark.parametrize("replication", [2, 3])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=st.lists(ROSTER_OPS, min_size=1, max_size=80))
def test_in_place_hdfs_placement_matches_the_copying_body(replication, ops):
    lean = Roster(ReplicationPlacement, replication)
    copying = Roster(RosterCopyPlacement, replication)
    for op in ops:
        assert lean.apply(*op) == copying.apply(*op), op


def test_shuffle_is_random_shuffle_draw_for_draw():
    """``_shuffle`` must make ``random.Random.shuffle``'s draws exactly:
    an interpreter whose shuffle draws differently trips this test rather
    than every HDFS digest."""
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for length in range(301):
            mine, reference = list(range(length)), list(range(length))
            _shuffle(ours, mine)
            theirs.shuffle(reference)
            assert mine == reference, (seed, length)
            assert ours.getstate() == theirs.getstate(), (seed, length)
