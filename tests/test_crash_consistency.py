"""Crash-consistency tests: torn writes and journal roll-forward (§3.4).

These tests construct every partial-progress state a crash can leave a
journaled write in -- record appended; parity absorbed; content stored;
any prefix of the protocol on either replica -- and check that
roll-forward always restores the cluster invariants (mirror agreement and
parity consistency) without double-applying anything.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.journal import Journal, RecordState
from repro.core.node import RaidpConfig
from repro.errors import JournalError
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def make_cluster():
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=5),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(),
        superchunk_size=4 * units.MiB,
    )


def allocate_block(dfs, path="/f"):
    dfs.namenode.create_file(path)
    return dfs.namenode.allocate_block(path, dfs.config.block_size, writer=None)


def torn_write(dfs, locations, steps_a, steps_b):
    """Apply a prefix of the write protocol on each replica.

    Steps (cumulative): 1 = journal record appended; 2 = + parity
    absorbed; 3 = + content stored (write 'on disk').
    """
    block = locations.block
    payload = dfs.factory.make(block.name, locations.version, block.size)
    for datanode_name, steps in zip(locations.datanodes, (steps_a, steps_b)):
        datanode = dfs.datanode_by_name(datanode_name)
        sc_id, slot = locations.sc_id, locations.slot
        old = datanode.slot_payload(sc_id, slot)
        if steps >= 1:
            datanode.lstors.journal.append(
                block_name=block.name,
                sc_id=sc_id,
                slot=slot,
                old_data=old,
                new_data=payload,
                nbytes=block.size,
                now=dfs.sim.now,
                version=locations.version,
            )
        if steps >= 2:
            datanode.lstors.absorb_update(
                datanode.shard_index_of(sc_id),
                slot,
                old,
                payload,
                tag=("w", block.name, locations.version),
            )
        if steps >= 3:
            datanode.create_block_file(locations)
            datanode._install_content(locations, payload)
    return payload


def roll_forward_all(dfs):
    for datanode in dfs.datanodes:
        if datanode.lstors.journal.outstanding:
            dfs.sim.run_process(datanode.roll_forward())


@pytest.mark.parametrize("steps_a", [1, 2, 3])
@pytest.mark.parametrize("steps_b", [0, 1, 2, 3])
def test_roll_forward_from_every_torn_state(steps_a, steps_b):
    dfs = make_cluster()
    locations = allocate_block(dfs)
    payload = torn_write(dfs, locations, steps_a, steps_b)
    roll_forward_all(dfs)
    dfs.verify_parity()
    for name in locations.datanodes:
        datanode = dfs.datanode_by_name(name)
        assert datanode.content_of(locations.block.name) == payload
    assert dfs.journals_empty()


def test_a_mirror_without_an_lstor_leaves_no_record_waiting():
    """A partner whose Lstor is lost journals nothing and never
    acknowledges; the journaling side must not wait for it (the paper's
    "one or two outstanding", not one more per write for ever)."""
    dfs = make_cluster()
    locations = allocate_block(dfs)
    lossy, journaling = (dfs.datanode_by_name(n) for n in locations.datanodes)
    lossy.lstors.primary.fail()
    dfs.sim.run_process(dfs.client(0).write_block(locations))
    assert journaling.lstors.journal.total_appends == 1
    assert lossy.lstors.journal.total_appends == 0
    assert not journaling._awaiting_ack
    assert dfs.journals_empty()
    dfs.verify_mirrors()
    dfs.verify_parity()


def test_roll_forward_is_idempotent():
    dfs = make_cluster()
    locations = allocate_block(dfs)
    payload = torn_write(dfs, locations, 2, 0)
    roll_forward_all(dfs)
    roll_forward_all(dfs)  # second pass must be a no-op
    dfs.verify_parity()
    for name in locations.datanodes:
        assert dfs.datanode_by_name(name).content_of(locations.block.name) == payload


def test_roll_forward_after_rewrite_crash():
    """Crash during a rewrite: old content v1 durable, v2 torn."""
    dfs = make_cluster()
    client = dfs.client(0)
    dfs.sim.run_process(client.write_file("/f", units.MiB))
    locations = dfs.namenode.locate_block(dfs.namenode.file_blocks("/f")[0].block_id)
    locations.version = 2
    payload = torn_write(dfs, locations, 2, 1)
    roll_forward_all(dfs)
    dfs.verify_parity()
    dfs.verify_mirrors()
    for name in locations.datanodes:
        datanode = dfs.datanode_by_name(name)
        assert datanode.content_of(locations.block.name) == payload
        assert datanode.version_of(locations.block.name) == 2


def test_roll_forward_of_deleted_block_just_clears():
    dfs = make_cluster()
    locations = allocate_block(dfs)
    torn_write(dfs, locations, 1, 0)
    # The file vanishes before recovery runs.
    dfs.namenode.delete_file("/f")
    roll_forward_all(dfs)
    assert dfs.journals_empty()


@settings(max_examples=20, deadline=None)
@given(
    steps_a=st.integers(min_value=1, max_value=3),
    steps_b=st.integers(min_value=0, max_value=3),
    rewrites=st.integers(min_value=0, max_value=2),
)
def test_property_roll_forward_always_restores_invariants(steps_a, steps_b, rewrites):
    dfs = make_cluster()
    client = dfs.client(0)
    dfs.sim.run_process(client.write_file("/base", 2 * units.MiB))
    locations = allocate_block(dfs, path="/torn")
    locations.version += rewrites
    torn_write(dfs, locations, steps_a, steps_b)
    roll_forward_all(dfs)
    dfs.verify_parity()
    dfs.verify_mirrors()
    assert dfs.journals_empty()


# ----------------------------------------------------------------------
# Journal unit tests.
# ----------------------------------------------------------------------
def zero_payload():
    from repro.storage.payload import Payload

    return Payload.zeros(1024)


def append_one(journal, name="blk_1", nbytes=1024):
    return journal.append(
        block_name=name,
        sc_id=0,
        slot=0,
        old_data=zero_payload(),
        new_data=zero_payload(),
        nbytes=nbytes,
        now=0.0,
    )


def test_journal_state_machine_happy_path():
    journal = Journal(capacity=units.MiB)
    record = append_one(journal)
    assert record.state is RecordState.APPENDED
    journal.mark_committed(record.record_id)
    journal.mark_acked(record.record_id)
    journal.clear(record.record_id, now=1.0)
    assert journal.outstanding == 0
    assert journal.total_appends == journal.total_clears == 1


def test_journal_rejects_out_of_order_transitions():
    journal = Journal(capacity=units.MiB)
    record = append_one(journal)
    with pytest.raises(JournalError):
        journal.mark_acked(record.record_id)
    with pytest.raises(JournalError):
        journal.clear(record.record_id, now=0.0)
    journal.mark_committed(record.record_id)
    with pytest.raises(JournalError):
        journal.mark_committed(record.record_id)


def test_journal_capacity_frees_on_clear():
    """Clearing a record frees its space: an append that overflowed
    before the clear fits after it, and is not counted."""
    journal = Journal(capacity=1536)
    first = append_one(journal, name="a", nbytes=1024)  # 1 KiB of journal space
    append_one(journal, name="b", nbytes=1024)  # exceeds 1.5 KiB: counted
    assert journal.overflows == 1
    journal.mark_committed(first.record_id)
    journal.mark_acked(first.record_id)
    journal.clear(first.record_id, now=0.0)
    assert journal.used_bytes == 1024
    append_one(journal, name="c", nbytes=512)  # fits the freed space
    assert journal.overflows == 1
    assert journal.high_water_bytes == 2048


def test_journal_capacity_soft_mode_counts_overflows():
    journal = Journal(capacity=1536)
    append_one(journal, name="a", nbytes=1024)
    append_one(journal, name="b", nbytes=1024)  # over capacity, admitted
    assert journal.overflows == 1
    assert journal.high_water_bytes == 2048
    assert journal.outstanding == 2


def test_journal_unknown_record_rejected():
    journal = Journal()
    with pytest.raises(JournalError):
        journal.mark_committed(42)


def test_journal_replay_candidates_oldest_first():
    journal = Journal()
    first = append_one(journal, name="a")
    second = append_one(journal, name="b")
    assert [r.record_id for r in journal.replay_candidates()] == [
        first.record_id,
        second.record_id,
    ]


def test_journal_drop_all_resets_gauge():
    journal = Journal()
    append_one(journal, name="a")
    append_one(journal, name="b")
    journal.drop_all(now=2.0)
    assert journal.outstanding == 0
    assert journal.used_bytes == 0
    assert journal.outstanding_gauge.current == 0
