"""Lazy preallocation of the update-oriented variant (paper §5).

``RaidpDataNode.preallocate_superchunks`` mints nothing: a prefilled
slot's filler is derived on demand until a block is bound there, and the
Lstor stack folds a slot's fillers into every parity row the first time
the slot is read.  :func:`tests.oracles.eager_preallocate` is the loop
it replaced; the differential drives both through the same history and
requires every slot payload and every parity row to be equal.
"""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.lstor import filler_name
from repro.core.node import RaidpConfig, RaidpDataNode
from repro.core.recovery import RecoveryManager
from repro.errors import DfsError, LstorFailedError
from repro.experiments.common import Scale, build_raidp
from repro.hdfs.block import Block, BlockLocations
from repro.hdfs.config import DfsConfig
from repro.sim import snapshot
from repro.sim.cluster import ClusterSpec
from repro.storage.payload import ContentFactory
from tests.oracles import eager_preallocate


def block_in_slot(datanode, sc_id, slot):
    """The block name a slot holds: a stored block, its preallocation
    filler, or None."""
    name = datanode._block_at.get((sc_id, slot))
    if name is None and datanode._holds_filler(sc_id, slot):
        return filler_name(sc_id, slot)
    return name

#: Lstors per disk: one XOR Lstor, or a stack of two RS rows.
STACKS = {"xor": 1, "rs2": 2}


def preallocated(lstors_per_disk):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(update_oriented=True, lstors_per_disk=lstors_per_disk),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,
    )


def slots(dfs, sc_ids):
    """Every slot payload of every DataNode."""
    return [
        datanode.slot_payload(sc_id, slot)
        for datanode in dfs.datanodes
        for sc_id in sc_ids
        for slot in range(dfs.map.slots_per_superchunk)
    ]


def parity(datanodes):
    """Every parity row of ``datanodes`` (reading folds the baselines)."""
    rows = []
    for datanode in datanodes:
        stack = datanode.lstors
        for slot in range(datanode.map.slots_per_superchunk):
            for row in range(stack.parity_count):
                try:
                    rows.append(stack.parity_block(slot, row))
                except LstorFailedError:
                    rows.append("failed")
    return rows


def churn(dfs):
    def body():
        yield from dfs.client(0).write_file("/a", 6 * units.MiB)
        yield from dfs.client(3).write_file("/b", 4 * units.MiB)
        yield from dfs.client(0).rewrite_file("/a")
        yield from dfs.client(5).rewrite_file("/a")
        yield from dfs.client(3).delete_file("/b")
        yield from dfs.client(6).write_file("/c", 5 * units.MiB)

    dfs.sim.run_process(body())


def sharing_pair(dfs):
    return next(
        (a, b)
        for a in dfs.layout.disks
        for b in dfs.layout.disks
        if a < b and dfs.layout.shared(a, b) is not None
    )


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_lazy_preallocation_matches_the_eager_loop(stack, monkeypatch):
    lazy = preallocated(STACKS[stack])
    with monkeypatch.context() as patch:
        patch.setattr(RaidpDataNode, "preallocate_superchunks", eager_preallocate)
        eager = preallocated(STACKS[stack])
    sc_ids = sorted(lazy.layout.superchunks)
    assert slots(lazy, sc_ids) == slots(eager, sc_ids)
    # One disk's parity is read before any write lands on it; the other
    # disks absorb their writes into slots not yet folded.
    assert parity(lazy.datanodes[:1]) == parity(eager.datanodes[:1])

    for dfs in (lazy, eager):
        churn(dfs)
    assert slots(lazy, sc_ids) == slots(eager, sc_ids)
    assert parity(lazy.datanodes) == parity(eager.datanodes)
    for dfs in (lazy, eager):
        dfs.verify_parity()
        dfs.verify_mirrors()

    for dfs in (lazy, eager):
        report = RecoveryManager(dfs).recover(sharing_pair(dfs))
        assert report.reconstructed
        dfs.verify_parity()
        dfs.verify_mirrors()
    sc_ids = sorted(set(sc_ids) | set(lazy.layout.superchunks))
    assert slots(lazy, sc_ids) == slots(eager, sc_ids)
    assert parity(lazy.datanodes) == parity(eager.datanodes)


def test_preallocated_build_mints_nothing(monkeypatch):
    """The default-scale re-write cluster: no filler is minted at build
    time (the eager loop minted 16 disks x 15 superchunks x 96 slots =
    23,040), and its snapshot is about the base variant's size."""
    minted = []
    make = ContentFactory.make
    monkeypatch.setattr(
        ContentFactory, "make", lambda self, *args: minted.append(args) or make(self, *args)
    )
    rewrite = build_raidp(Scale(), 1, update_oriented=True)
    assert minted == []
    base = build_raidp(Scale(), 1)
    assert len(snapshot.capture(rewrite)) <= 1.2 * len(snapshot.capture(base))


def test_fillers_are_derived_until_a_block_takes_the_slot():
    dfs = preallocated(lstors_per_disk=1)
    dfs.sim.run_process(dfs.client(0).write_file("/f", units.MiB))
    locations = dfs.namenode.all_blocks()[0]
    datanode = dfs.datanode_by_name(locations.datanodes[0])
    sc_id, slot = locations.sc_id, locations.slot
    assert block_in_slot(datanode, sc_id, slot) == locations.block.name
    assert block_in_slot(datanode, sc_id, slot + 1) == f"pre_sc{sc_id}_s{slot + 1}"
    assert datanode.slot_payload(sc_id, slot + 1) == dfs.factory.make(
        f"pre_sc{sc_id}_s{slot + 1}", 0, units.MiB
    )
    assert datanode.block_report() == [locations.block.name]
    # A purged replica (remirror rollback) leaves its slot empty, not refilled;
    # so does a deleted block.
    datanode.purge_block(locations.block.name)
    dfs.sim.run_process(dfs.client(0).delete_file("/f"))
    for name in locations.datanodes:
        holder = dfs.datanode_by_name(name)
        assert block_in_slot(holder, sc_id, slot) is None
        assert holder.slot_payload(sc_id, slot).is_zero()
    # So does deleting a block that never reached its slot here.
    ghost = Block(block_id=99, path="/ghost", index=0, size=units.MiB)
    datanode.delete_block(
        BlockLocations(ghost, [datanode.name], sc_id=sc_id, slot=slot + 1)
    )
    assert block_in_slot(datanode, sc_id, slot + 1) is None
    assert datanode.slot_payload(sc_id, slot + 1).is_zero()
    dfs.verify_parity()


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_stack_reconstruction_reads_the_fillers_baseline(stack):
    """Rebuilding a slot straight from a fresh stack (nothing read or
    absorbed yet) recovers the lost superchunks' fillers."""
    dfs = preallocated(STACKS[stack])
    datanode = dfs.datanodes[0]
    sc_ids = dfs.layout.superchunks_of(datanode.name)
    lost = sc_ids[: datanode.lstors.parity_count]
    surviving = {
        datanode.shard_index_of(sc): datanode.slot_payload(sc, 1)
        for sc in sc_ids
        if sc not in lost
    }
    rebuilt = datanode.lstors.reconstruct_block(
        1, surviving, [datanode.shard_index_of(sc) for sc in lost]
    )
    for sc in lost:
        assert rebuilt[datanode.shard_index_of(sc)] == datanode.slot_payload(sc, 1)


def test_preallocation_sets_up_an_empty_datanode_once():
    dfs = preallocated(lstors_per_disk=1)
    with pytest.raises(DfsError, match="once"):
        dfs.datanodes[0].preallocate_superchunks()
