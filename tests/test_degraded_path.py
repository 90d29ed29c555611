"""Tests for §3.4's data-path behavior during failures: degraded reads
through the Lstor and write diversion from recovering superchunks."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.journal import RecordState
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager
from repro.errors import BlockMissingError, LayoutError
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from tests.test_preallocation import block_in_slot
from tests.test_slot_update import live_rows_cover


def cluster(num_nodes=6, per_disk=None):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=per_disk,
    )


def kill(dfs, *names):
    """Fail each named disk and declare its DataNode dead."""
    for name in names:
        dfs.datanode_by_name(name).disk.fail()
        dfs.namenode.datanode(name).alive = False


def fail_both_replicas(dfs, locations):
    kill(dfs, *locations.datanodes)
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


def stacked_cluster():
    """Ten disks with two stacked Lstors each: nine RS data shards."""
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=10),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(lstors_per_disk=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,
    )


def test_degraded_read_and_rebuild_through_stacked_lstors():
    """Ten disks give each stack nine RS data shards, whose first parity
    row is not plain XOR: a degraded read and a rebuild must decode."""
    dfs = stacked_cluster()
    assert set(dfs.datanodes[0].lstors.coefficients[0]) != {1}
    dfs.sim.run_process(dfs.client(0).write_file("/f", 3 * units.MiB))
    block = dfs.namenode.file_blocks("/f")[0]
    locations = dfs.namenode.locate_block(block.block_id)
    original = dfs.datanode_by_name(locations.datanodes[0]).content_of(block.name)
    fail_both_replicas(dfs, locations)
    reader = next(c for c in dfs.clients if c.node.name not in locations.datanodes)
    assert dfs.sim.run_process(reader.degraded_read(locations)) == original
    RecoveryManager(dfs).recover(tuple(locations.datanodes))
    for name in locations.datanodes:
        assert dfs.datanode_by_name(name).content_of(block.name) == original


def test_verify_parity_checks_every_stacked_row():
    """``verify_parity`` holds each live row of a stack to its sum of
    the disk's blocks, not only the primary's: one stray term in a slot
    of row 1 is a mismatch."""
    dfs = stacked_cluster()
    dfs.sim.run_process(dfs.client(0).write_file("/f", 3 * units.MiB))
    dfs.verify_parity()
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    datanode = dfs.datanode_by_name(locations.datanodes[0])
    slot = locations.slot
    stray = dfs.factory.make("stray", 1, units.MiB)
    datanode.lstors._parity[1][slot] = datanode.lstors.parity_block(slot, row=1) ^ stray
    with pytest.raises(LayoutError, match=f"{datanode.name} slot {slot}"):
        dfs.verify_parity()


def test_degraded_read_burdens_many_nodes():
    """Like an erasure-coded degraded read, the fallback moves roughly
    one block per surviving superchunk of the failed disk."""
    dfs = cluster()
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
    dfs = cluster()
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
    """Detection lag: in each home's chain a sibling mirror's disk died
    but its DataNode is not yet declared dead.  The read cannot be
    assembled, and says so the way every read does --
    ``BlockMissingError`` -- instead of leaking the device's
    ``DiskFailedError``."""
    dfs = cluster()

    def fill():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/f{index}", 4 * units.MiB)

    dfs.sim.run_process(fill())
    reader = dfs.client(0)

    def populated_sibling(locations, home):
        """A mirror in ``home``'s chain, outside the block's own
        replicas, holding a stored block at the block's slot."""
        for other_sc in dfs.layout.superchunks_of(home):
            if other_sc == locations.sc_id:
                continue
            name = dfs.layout.superchunk(other_sc).mirror_of(home)
            mirror = dfs.datanode_by_name(name)
            if (
                name not in locations.datanodes
                and block_in_slot(mirror, other_sc, locations.slot) is not None
            ):
                return mirror
        return None

    locations, victims = next(
        (loc, victims)
        for loc in dfs.namenode.all_blocks()
        if None not in (
            victims := [populated_sibling(loc, home) for home in sorted(loc.datanodes)]
        )
    )
    fail_both_replicas(dfs, locations)
    for victim in victims:
        victim.disk.fail()
        assert victim.alive  # not yet detected
    with pytest.raises(
        BlockMissingError,
        match=f"no home of superchunk {locations.sc_id} has a live Lstor",
    ):
        dfs.sim.run_process(reader.degraded_read(locations))


# ----------------------------------------------------------------------
# One decode: the read takes the rebuild's rule and its journal stand-ins.
# On ten disks with three superchunks each, blk_0 sits at slot 0 of
# superchunk 9 (homes n0 and n9) and blk_1 at slot 0 of superchunk 0
# (n0 and n1); n0 decodes superchunk 9 through n1 and n2, n9 through n8.
# ----------------------------------------------------------------------
def ten_disks():
    dfs = cluster(num_nodes=10, per_disk=3)
    dfs.sim.run_process(dfs.client(0).write_file("/f", 4 * units.MiB))
    layout, namenode = dfs.layout, dfs.namenode
    assert [layout.shared("n0", d) for d in ("n1", "n9", "n2")] == [0, 9, 10]
    assert [layout.shared("n9", d) for d in ("n8", "n0")] == [8, 9]
    assert [
        (locations.sc_id, locations.slot)
        for locations in map(namenode.locate_block_by_name, ("blk_0", "blk_1"))
    ] == [(9, 0), (0, 0)]
    return dfs


def torn_rewrite(dfs, block_name):
    """Rewrite ``block_name`` from n4 in the instant n0's disk fails: the
    write lands on the block's other home alone and leaves n0 an
    APPENDED journal record its parity never absorbed."""
    locations = dfs.namenode.locate_block_by_name(block_name)

    def body():
        dfs.datanode_by_name("n0").disk.fail()
        locations.version += 1
        yield from dfs.client(4).write_block(locations)

    dfs.sim.run_process(body())
    (record,) = dfs.datanode_by_name("n0").lstors.journal.replay_candidates()
    assert (record.block_name, record.state) == (block_name, RecordState.APPENDED)
    (home,) = locations.datanodes
    assert dfs.datanode_by_name(home).version_of(block_name) == locations.version


def read_and_rebuild(dfs, block_name, dead):
    """What a degraded read of ``block_name`` returns, once the ``dead``
    disks are dead, and what the rebuild then installs on both new
    homes."""
    locations = dfs.namenode.locate_block_by_name(block_name)
    kill(dfs, *dead)
    read = dfs.sim.run_process(dfs.client(4).read_block(locations))
    report = RecoveryManager(dfs).recover(dead)
    assert report.lost_superchunks == []
    installed = {
        dfs.datanode_by_name(name).content_of(block_name)
        for name in locations.datanodes
    }
    assert len(locations.datanodes) == 2 and len(installed) == 1
    return read, installed.pop()


def test_degraded_read_falls_back_to_the_other_home():
    """blk_0's homes die, and so does n1, which n0's chain needs and
    n9's does not: the read decodes through n9, as the rebuild does."""
    dfs = ten_disks()
    original = dfs.factory.make("blk_0", 1, units.MiB)
    assert read_and_rebuild(dfs, "blk_0", ("n0", "n9", "n1")) == (original, original)


def test_degraded_read_refuses_a_chain_disk_dying_mid_read():
    """n2, in n0's chain, passes the chain check and its disk dies as its
    slot is read: the read says ``BlockMissingError``, not the device's
    ``DiskFailedError``."""
    dfs = ten_disks()
    locations = dfs.namenode.locate_block_by_name("blk_0")
    kill(dfs, "n0", "n9")
    n2 = dfs.datanode_by_name("n2")
    read_slot = n2.read_slot

    def dying(*args):
        n2.disk.fail()
        return (yield from read_slot(*args))

    n2.read_slot = dying
    with pytest.raises(BlockMissingError, match="I/O on failed disk n2"):
        dfs.sim.run_process(dfs.client(4).read_block(locations))


def test_degraded_read_stands_in_for_a_torn_sibling_write():
    """A rewrite of blk_1 lands on n1 but never reaches n0's parity: the
    read of blk_0 through n0 must chain blk_1's journaled old bytes, not
    n1's new ones."""
    dfs = ten_disks()
    torn_rewrite(dfs, "blk_1")
    original = dfs.factory.make("blk_0", 1, units.MiB)
    assert read_and_rebuild(dfs, "blk_0", ("n0", "n9")) == (original, original)


def test_degraded_read_rolls_a_torn_own_write_forward():
    """A rewrite of blk_0 to version 2 completes on n9 alone, then n9
    dies: n0's parity still covers version 1, and its journal holds the
    version the NameNode names."""
    dfs = ten_disks()
    torn_rewrite(dfs, "blk_0")
    assert dfs.namenode.locate_block_by_name("blk_0").version == 2
    rewritten = dfs.factory.make("blk_0", 2, units.MiB)
    assert read_and_rebuild(dfs, "blk_0", ("n0", "n9")) == (rewritten, rewritten)


def test_degraded_read_over_preallocated_fillers():
    """On the re-write variant's preallocated superchunks most sibling
    slots hold a filler, which has no block file: each is read at its
    slot's fixed offset, one block per sibling superchunk."""
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=5),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(update_oriented=True),
        superchunk_size=4 * units.MiB,
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
    dfs = cluster()
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
    dfs = cluster(num_nodes=8, per_disk=3)
    frozen = dfs.layout.superchunks_of("n0")
    for sc_id in frozen:
        dfs.map.freeze(sc_id)
    client = dfs.client(1)
    dfs.sim.run_process(client.write_file("/f", 8 * units.MiB))
    for block in dfs.namenode.file_blocks("/f"):
        locations = dfs.namenode.locate_block(block.block_id)
        assert locations.sc_id not in frozen


def test_recovery_unfreezes_when_done():
    dfs = cluster(num_nodes=8, per_disk=3)

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


def test_a_stack_without_its_primary_stays_audited():
    """Row 0 of a holder's stack fails: purging one of its blocks still
    folds the block out of live row 1, and ``verify_parity`` audits that
    disk -- a stray term in its row 1 is a mismatch."""
    dfs = stacked_cluster()
    dfs.sim.run_process(dfs.client(0).write_file("/f", 3 * units.MiB))
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    datanode = dfs.datanode_by_name(locations.datanodes[0])
    datanode.lstors.primary.fail()
    datanode.purge_block(locations.block.name)
    assert live_rows_cover(dfs, datanode)
    dfs.verify_parity()
    slot = locations.slot
    stray = dfs.factory.make("stray", 1, units.MiB)
    datanode.lstors._parity[1][slot] = datanode.lstors.parity_block(slot, row=1) ^ stray
    with pytest.raises(LayoutError, match=f"{datanode.name} slot {slot}"):
        dfs.verify_parity()
