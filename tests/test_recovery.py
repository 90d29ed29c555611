"""Integration tests for failure recovery (paper §3.3 and §6.4).

The clusters here use sparse layouts (fewer superchunks per disk than the
N-1 maximum) so that legal re-mirroring targets exist after failures --
exactly the headroom the paper says recovery depends on.
"""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager, RecoveryOptions
from repro.errors import RecoveryError, ReproError
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from tests.oracles import discrete_lane, min_remirror_load


def sparse_cluster(num_nodes=8, per_disk=3, payload_mode="bytes", **raidp_kwargs):
    """A RaidpCluster whose layout leaves re-mirroring headroom."""
    config = DfsConfig(block_size=units.MiB, replication=2)
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=config,
        raidp=RaidpConfig(**raidp_kwargs),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=per_disk,
        payload_mode=payload_mode,
    )


def write_some_data(dfs, files=4, size=3 * units.MiB):
    def body():
        procs = [
            dfs.sim.process(dfs.clients[i % len(dfs.clients)].write_file(f"/f{i}", size))
            for i in range(files)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(body())


# ----------------------------------------------------------------------
# Single failure.
# ----------------------------------------------------------------------
def test_single_failure_plan_is_legal():
    dfs = sparse_cluster()
    write_some_data(dfs)
    manager = RecoveryManager(dfs)
    victim = dfs.datanodes[0].name
    dfs.namenode.mark_datanode_dead(victim)
    orphans = {sc.sc_id for sc in dfs.layout.remove_disk(victim)}
    plan = manager.plan_remirror(victim)
    assert {sc for sc, _s, _r in plan} == orphans
    receivers = [r for _sc, _s, r in plan]
    assert len(set(receivers)) == len(receivers)  # parallelism: one each
    for sc, sender, receiver in plan:
        assert dfs.layout.shared(sender, receiver) is None


def test_single_failure_recovery_restores_mirroring():
    dfs = sparse_cluster()
    write_some_data(dfs)
    manager = RecoveryManager(dfs)
    victim = dfs.datanodes[2].name
    report = manager.recover((victim,))
    assert dfs.layout.is_fully_mirrored
    dfs.layout.verify()
    dfs.verify_mirrors()
    dfs.verify_parity()
    assert report.duration > 0 or not report.remirrored


def test_single_failure_restores_replica_counts():
    dfs = sparse_cluster()
    write_some_data(dfs)
    manager = RecoveryManager(dfs)
    victim = dfs.datanodes[1].name
    manager.recover((victim,))
    for locations in dfs.namenode.all_blocks():
        live = [
            n for n in locations.datanodes if dfs.namenode.datanode(n).alive
        ]
        assert len(live) >= 2, f"{locations.block.name} under-replicated"


@pytest.mark.parametrize("victim", range(8))
def test_plan_remirror_reaches_the_brute_force_minimum(victim):
    """The Hungarian plan's total receiver load is the least of every
    legal, exchange-free assignment (``tests/oracles.py``)."""
    dfs = sparse_cluster(payload_mode="tokens")
    write_some_data(dfs, files=8)
    name = dfs.datanodes[victim].name
    dfs.namenode.mark_datanode_dead(name)
    dfs.layout.remove_disk(name)
    plan = RecoveryManager(dfs).plan_remirror(name)
    assert plan
    load = sum(dfs.map.load_of_disk(receiver) for _sc, _s, receiver in plan)
    senders = [(sc, sender) for sc, sender, _r in plan]
    assert load == min_remirror_load(dfs, name, senders)


# ----------------------------------------------------------------------
# Double failure.
# ----------------------------------------------------------------------
def pick_sharing_pair(dfs):
    for a in dfs.layout.disks:
        for b in dfs.layout.disks:
            if a < b and dfs.layout.shared(a, b) is not None:
                return a, b
    raise AssertionError("no sharing pair in layout")


def test_double_failure_reconstructs_lost_superchunk_bit_exact():
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="bytes")
    write_some_data(dfs, files=10, size=4 * units.MiB)
    a, b = pick_sharing_pair(dfs)
    shared = dfs.layout.shared(a, b)
    # Remember the content that only lives on the shared superchunk.
    lost_blocks = {}
    for slot, name in dfs.map.blocks_in(shared).items():
        datanode = dfs.datanode_by_name(a)
        if datanode.has_block(name):
            lost_blocks[name] = datanode.content_of(name)
    manager = RecoveryManager(dfs)
    report = manager.recover((a, b))
    assert report.reconstructed == [shared]
    for name, original in lost_blocks.items():
        locations = next(
            loc for loc in dfs.namenode.all_blocks() if loc.block.name == name
        )
        live = [n for n in locations.datanodes if dfs.namenode.datanode(n).alive]
        assert len(live) >= 2
        for node_name in live:
            recovered = dfs.datanode_by_name(node_name).content_of(name)
            assert recovered == original, f"bit rot in {name} on {node_name}"


def test_double_failure_restores_full_mirroring_and_parity():
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="bytes")
    write_some_data(dfs, files=8)
    a, b = pick_sharing_pair(dfs)
    manager = RecoveryManager(dfs)
    manager.recover((a, b))
    dfs.layout.verify()
    assert dfs.layout.is_fully_mirrored
    dfs.verify_mirrors()
    dfs.verify_parity()


def test_double_failure_without_shared_superchunk():
    dfs = sparse_cluster(num_nodes=9, per_disk=2, payload_mode="tokens")
    write_some_data(dfs, files=4)
    non_sharing = None
    for a in dfs.layout.disks:
        for b in dfs.layout.disks:
            if a < b and dfs.layout.shared(a, b) is None:
                non_sharing = (a, b)
                break
        if non_sharing:
            break
    assert non_sharing, "expected a non-sharing pair in a sparse layout"
    manager = RecoveryManager(dfs)
    report = manager.recover(non_sharing)
    assert report.reconstructed == []
    dfs.verify_mirrors()


def test_double_failure_uses_other_lstor_when_first_failed():
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="bytes")
    write_some_data(dfs, files=8)
    a, b = pick_sharing_pair(dfs)
    dfs.datanode_by_name(a).lstors.primary.fail()
    manager = RecoveryManager(dfs)
    report = manager.recover((a, b))
    assert report.reconstructed
    dfs.verify_mirrors()


def test_double_failure_with_both_lstors_dead_is_data_loss():
    from repro.errors import DataLossError

    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="bytes")
    write_some_data(dfs, files=8)
    a, b = pick_sharing_pair(dfs)
    dfs.datanode_by_name(a).lstors.primary.fail()
    dfs.datanode_by_name(b).lstors.primary.fail()
    manager = RecoveryManager(dfs)
    with pytest.raises(DataLossError):
        manager.recover((a, b))


def test_reconstruction_lock_modes_and_chunk_sizes_run():
    for lock_mode in ("byte_range", "superchunk"):
        for chunk in (units.MiB, 2 * units.MiB):
            dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="tokens")
            write_some_data(dfs, files=6)
            a, b = pick_sharing_pair(dfs)
            manager = RecoveryManager(dfs)
            options = RecoveryOptions(lock_mode=lock_mode, chunk_size=chunk)
            report = manager.recover((a, b), options)
            assert report.duration > 0


def test_recovery_options_validation():
    with pytest.raises(ValueError):
        RecoveryOptions(lock_mode="rcu")
    with pytest.raises(ValueError):
        RecoveryOptions(chunk_size=0)


# ----------------------------------------------------------------------
# Freeze ordering (regression for an RDP002 finding).
# ----------------------------------------------------------------------
def test_double_recovery_freezes_superchunks_in_sorted_order():
    """The freeze set was once iterated in set (hash) order; the linter
    flagged it (RDP002) and the fix sorts it.  Lock the ordering in so
    the freeze-window trace and fingerprints stay bitwise reproducible
    regardless of PYTHONHASHSEED."""
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="tokens")
    write_some_data(dfs, files=6)
    a, b = pick_sharing_pair(dfs)
    frozen_order = []
    unfrozen_order = []
    original_freeze = dfs.map.freeze
    original_unfreeze = dfs.map.unfreeze

    def record_freeze(sc_id):
        frozen_order.append(sc_id)
        return original_freeze(sc_id)

    def record_unfreeze(sc_id):
        unfrozen_order.append(sc_id)
        return original_unfreeze(sc_id)

    dfs.map.freeze = record_freeze
    dfs.map.unfreeze = record_unfreeze
    manager = RecoveryManager(dfs)
    manager.recover((a, b))
    assert frozen_order, "double recovery froze nothing"
    assert frozen_order == sorted(frozen_order)
    assert unfrozen_order == sorted(unfrozen_order)
    assert sorted(unfrozen_order) == sorted(frozen_order)


# ----------------------------------------------------------------------
# A source disk dying under a puller (regression for the event-form read).
# ----------------------------------------------------------------------
def _fail_source_mid_chunk():
    """Kill a mirror puller's source disk inside its first 1 MiB read
    (4 MiB superchunks: every stream is that chunk plus a 3 MiB body).

    The puller awaits its source read as an event beside the network
    flow.  A disk that dies while the head moves must fail that event at
    the read's own completion time -- never raise at the call, never
    strand the queue slot -- so ``all_of`` fails, the recovery records
    the superchunk as lost, and the
    surviving pullers drain on their own.  Returns (report instant, end
    instant, solves, deadline pushes), checking what must hold on either
    lane along the way."""
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="tokens")
    write_some_data(dfs, files=6)
    a, b = pick_sharing_pair(dfs)
    shared = dfs.layout.shared(a, b)
    manager = RecoveryManager(dfs)
    (_source, chain), *_ = manager._decoders(shared, (a, b))
    victim = dfs.datanode_by_name(min(chain.values()))
    sim = dfs.sim
    t0 = sim.now
    seen = {}

    def saboteur():
        yield sim.timeout(0.004)  # inside the first 1 MiB source read
        victim.disk.fail()

    def recovery():
        options = RecoveryOptions(chunk_size=units.MiB, nic_index=1)
        seen["report"] = yield from manager.failure_body(
            (a, b), options, reconstruct_only=True
        )
        seen["at"] = sim.now - t0
        seen["active"] = len(dfs.switch._flows)
        seen["audit"] = dfs.switch.audit_flow_conservation()

    sim.process(saboteur())
    sim.process(recovery())
    sim.run()
    ((lost_sc, error),) = seen["report"].lost_superchunks
    assert lost_sc == shared
    assert str(error) == f"I/O on failed disk {victim.disk.name}"
    # Reported when the doomed read would have completed, with the other
    # pullers' chunks still on the wire; they finish and nothing leaks.
    assert (seen["active"], seen["audit"]) == (3, [])
    assert len(dfs.switch._flows) == 0
    assert dfs.switch.audit_flow_conservation() == []
    assert victim.disk.stats.reads == 1
    assert victim.disk._queue.in_use == 0 and len(victim.disk._queue._queue) == 0
    assert victim.disk.audit_state() == []
    switch = dfs.switch
    return (seen["at"].hex(), (sim.now - t0).hex(), switch.solves, switch.deadline_pushes)


def test_source_disk_failing_mid_chunk_is_a_tolerated_loss(monkeypatch):
    """On the per-chunk oracle (``tests.oracles.discrete_lane``), the
    instants and counters the process-wrapped read produced before."""
    discrete_lane(monkeypatch)
    assert _fail_source_mid_chunk() == (
        "0x1.05cf8a351c7f0p-7", "0x1.4bb81c4f3a31ep-4", 45, 69
    )


def test_source_disk_failing_mid_chunk_fluid_lane():
    """The fault falls inside the first chunk, which the fluid lane runs
    chunk by chunk too: the loss is reported at the oracle's instant.
    The two survivors then drain as 3 MiB bodies, 1.9% sooner than
    chunk by chunk (the bodies overlap their XORs with the wire fully;
    two chunk loops only partly), with fewer solves and deadlines."""
    assert _fail_source_mid_chunk() == (
        "0x1.05cf8a351c7f0p-7", "0x1.45bea1df93dc4p-4", 39, 61
    )


# ----------------------------------------------------------------------
# Survivors are the disks that hold a copy, not the ones a record names.
# ----------------------------------------------------------------------
def _sc_contents(dfs, holder, sc_id):
    datanode = dfs.datanode_by_name(holder)
    return {
        name: datanode.content_of(name)
        for name in dfs.map.blocks_in(sc_id).values()
        if datanode.has_block(name)
    }


def test_a_rejoined_empty_disk_is_no_sender():
    """n0 and n1 share superchunk 0 and both fail.  n0 recovers alone
    (superchunk 0 waits: its survivor n1 is failing), is repaired and
    rejoins empty.  The record of superchunk 0 still names n0, but n0
    holds nothing, so n1's recovery finds no survivor and decodes the
    superchunk from n1's Lstor -- rather than planning a copy from the
    empty disk, which fails and loses the superchunk's blocks."""
    from repro.core.monitor import ClusterMonitor

    dfs = sparse_cluster()
    write_some_data(dfs, files=8)
    assert dfs.layout.shared("n0", "n1") == 0
    originals = _sc_contents(dfs, "n1", 0)
    assert originals
    manager = RecoveryManager(dfs)
    for name in ("n0", "n1"):
        dfs.datanode_by_name(name).disk.fail()
    first = manager.recover(("n0",))
    assert 0 not in [sc_id for sc_id, _s, _r in first.remirrored]
    n0 = dfs.datanode_by_name("n0")
    n0.disk.repair()
    ClusterMonitor(dfs).rejoin(n0)
    assert not dfs.layout.holds("n0", 0)

    second = manager.recover(("n1",))
    assert second.reconstructed == [0]
    assert second.failed_remirrors == [] and second.lost_superchunks == []
    assert dfs.namenode.lost_blocks() == []
    dfs.layout.verify()
    assert dfs.layout.is_fully_mirrored
    dfs.verify_mirrors()
    dfs.verify_parity()
    for name, original in originals.items():
        locations = dfs.namenode.locate_block_by_name(name)
        assert len(locations.datanodes) == 2
        for home in locations.datanodes:
            assert dfs.datanode_by_name(home).content_of(name) == original


@pytest.mark.parametrize("sender_dies", [False, True])
def test_a_remirror_waits_for_a_rewrite_landing_on_its_sender(sender_dies):
    """A rewrite admitted after its block lost a replica targets the
    surviving sender alone.  The remirror copying that sender waits for
    the write to land (held here behind the sender's writer lock) and
    copies the new version, so the sender's journal record clears and
    needs no ack from the receiver; a sender that dies while the copy
    waits rolls the copy back."""
    dfs = sparse_cluster()
    write_some_data(dfs, files=2)
    victim = "n0"
    locations = next(
        loc for loc in dfs.namenode.all_blocks() if victim in loc.datanodes
    )
    name = locations.block.name
    sender = dfs.datanode_by_name(
        next(dn for dn in locations.datanodes if dn != victim)
    )
    dfs.datanode_by_name(victim).disk.fail()
    dfs.namenode.mark_datanode_dead(victim)
    manager = RecoveryManager(dfs)
    outcome = {}

    def rewrite():
        try:
            yield from dfs.clients[0].write_block(locations)
        except ReproError as exc:
            outcome["rewrite"] = exc

    def scenario():
        grant = yield sender.writer_lock.request()
        locations.version += 1
        dfs.sim.process(rewrite())
        recovery = dfs.sim.process(manager.failure_body((victim,)))
        yield dfs.sim.timeout(1.0)
        assert sender.version_of(name) == locations.version - 1
        if sender_dies:
            sender.disk.fail()
        sender.writer_lock.release(grant)
        outcome["report"] = yield recovery

    dfs.sim.run_process(scenario())
    report = outcome["report"]
    failed = [entry for entry, _exc in report.failed_remirrors]
    (entry,) = [e for e in report.remirrored + failed if e[0] == locations.sc_id]
    receiver = dfs.datanode_by_name(entry[2])
    if sender_dies:
        assert "rewrite" in outcome and entry in failed
        assert not receiver.has_block(name)
        assert receiver.name not in locations.datanodes
        return
    assert entry in report.remirrored and report.duration > 1.0
    assert locations.datanodes == [sender.name, receiver.name]
    expected = dfs.factory.make(name, locations.version, locations.block.size)
    for holder in (sender, receiver):
        assert holder.version_of(name) == locations.version
        assert holder.content_of(name) == expected
    assert sender.lstors.primary.journal.outstanding == 0
    dfs.verify_mirrors()
    dfs.verify_parity()
