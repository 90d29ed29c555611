"""Every slot mutation of a RAIDP DataNode keeps every live Lstor row
covering its disk.

``RaidpDataNode`` changes a slot's content in one place, its slot
update, which moves the slot's parity rows and its content binding
together; the Lstor's own live-row rule decides which rows absorb.  So
whichever way a slot changes -- a write, a rewrite, a range update, a
recovered install, a journal replay, a purge or a delete -- and whether
row 0 of the stack lives or not, each live row still equals its sum of
the disk's blocks afterwards, and checking that draws no byte.
"""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.journal import JournalRecord
from repro.core.node import RaidpConfig
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from repro.storage import payload as payload_module


def cluster(lstors_per_disk):
    """Ten disks (nine RS data shards per stack), re-write variant."""
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=10),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(update_oriented=True, lstors_per_disk=lstors_per_disk),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,
    )


def live_rows_cover(dfs, datanode):
    """Does every live row of ``datanode``'s stack cover its blocks at
    every slot?"""
    shards = [
        (datanode.shard_index_of(sc_id), sc_id)
        for sc_id in dfs.layout.superchunks_of(datanode.name)
    ]
    return all(
        datanode.lstors.covers(
            slot, {shard: datanode.slot_payload(sc_id, slot) for shard, sc_id in shards}
        )
        for slot in range(dfs.map.slots_per_superchunk)
    )


def _write(dfs, _datanode, _locations):
    dfs.sim.run_process(dfs.client(0).write_file("/g", 2 * units.MiB))


def _rewrite(dfs, _datanode, _locations):
    dfs.sim.run_process(dfs.client(0).rewrite_file("/f"))


def _update_range(dfs, _datanode, _locations):
    dfs.sim.run_process(dfs.client(0).update_file_range("/f", 4096, 8192))


def _install(dfs, datanode, locations):
    recovered = dfs.factory.make("recovered", 1, locations.block.size)
    datanode.install_recovered_block(locations, recovered)


def _replay(dfs, datanode, locations):
    block = locations.block
    record = JournalRecord(
        record_id=0,
        block_name=block.name,
        sc_id=locations.sc_id,
        slot=locations.slot,
        old_data=datanode.content_of(block.name),
        new_data=dfs.factory.make(block.name, locations.version + 1, block.size),
        nbytes=block.size,
        version=locations.version + 1,
    )
    datanode.apply_replayed_write(record, locations)


def _purge(_dfs, datanode, locations):
    datanode.purge_block(locations.block.name)


def _delete(_dfs, datanode, locations):
    datanode.delete_block(locations)


MUTATIONS = {
    "write": _write,
    "rewrite": _rewrite,
    "update_block_range": _update_range,
    "install_recovered_block": _install,
    "apply_replayed_write": _replay,
    "purge_block": _purge,
    "delete_block": _delete,
}


@pytest.mark.parametrize("row0", ["alive", "dead"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_slot_mutation_keeps_every_live_row_covering(mutation, k, row0, monkeypatch):
    dfs = cluster(k)
    dfs.sim.run_process(dfs.client(0).write_file("/f", 2 * units.MiB))
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    datanode = dfs.datanode_by_name(locations.datanodes[0])
    if row0 == "dead":
        for each in dfs.datanodes:
            each.lstors.primary.fail()
    draws = []
    real_draw = payload_module._draw
    monkeypatch.setattr(
        payload_module,
        "_draw",
        lambda seed, length: draws.append(length) or real_draw(seed, length),
    )
    before = datanode.slot_payload(locations.sc_id, locations.slot)
    MUTATIONS[mutation](dfs, datanode, locations)
    for each in dfs.datanodes:
        assert live_rows_cover(dfs, each), each.name
    assert len(datanode.lstors.live_rows()) == (k if row0 == "alive" else k - 1)
    if mutation != "write":  # which touches other slots
        # The touched slot changed (its terms: ``!=`` would draw them).
        after = datanode.slot_payload(locations.sc_id, locations.slot)
        assert after.terms != before.terms
    assert draws == []
