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
from repro.errors import RecoveryError
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from tests.oracles import discrete_lane


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
    plan = manager.plan_single_failure(victim)
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
    report = manager.recover_single_failure(victim)
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
    manager.recover_single_failure(victim)
    for locations in dfs.namenode.all_blocks():
        live = [
            n for n in locations.datanodes if dfs.namenode.datanode(n).alive
        ]
        assert len(live) >= 2, f"{locations.block.name} under-replicated"


def test_greedy_and_hungarian_planners_both_work():
    durations = {}
    for planner in ("greedy", "hungarian"):
        dfs = sparse_cluster(payload_mode="tokens")
        write_some_data(dfs)
        manager = RecoveryManager(dfs)
        options = RecoveryOptions(planner=planner)
        report = manager.recover_single_failure(dfs.datanodes[0].name, options)
        assert dfs.layout.is_fully_mirrored
        durations[planner] = report.duration
    assert set(durations) == {"greedy", "hungarian"}


def test_hungarian_balances_load_at_least_as_well_as_greedy():
    loads = {}
    for planner in ("greedy", "hungarian"):
        dfs = sparse_cluster(payload_mode="tokens")
        write_some_data(dfs, files=8)
        manager = RecoveryManager(dfs)
        manager.recover_single_failure(
            dfs.datanodes[0].name, RecoveryOptions(planner=planner)
        )
        per_disk = [
            dfs.map.load_of_disk(dn.name) for dn in dfs.datanodes if dn.alive
        ]
        loads[planner] = max(per_disk) - min(per_disk)
    assert loads["hungarian"] <= loads["greedy"] + 1


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
    report = manager.recover_double_failure(a, b)
    assert report.reconstructed_sc == shared
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
    manager.recover_double_failure(a, b)
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
    report = manager.recover_double_failure(*non_sharing)
    assert report.reconstructed_sc is None
    dfs.verify_mirrors()


def test_double_failure_uses_other_lstor_when_first_failed():
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="bytes")
    write_some_data(dfs, files=8)
    a, b = pick_sharing_pair(dfs)
    dfs.datanode_by_name(a).lstors.primary.fail()
    manager = RecoveryManager(dfs)
    report = manager.recover_double_failure(a, b)
    assert report.reconstructed_sc is not None
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
        manager.recover_double_failure(a, b)


def test_reconstruction_lock_modes_and_chunk_sizes_run():
    for lock_mode in ("byte_range", "superchunk"):
        for chunk in (units.MiB, 2 * units.MiB):
            dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="tokens")
            write_some_data(dfs, files=6)
            a, b = pick_sharing_pair(dfs)
            manager = RecoveryManager(dfs)
            options = RecoveryOptions(lock_mode=lock_mode, chunk_size=chunk)
            report = manager.recover_double_failure(a, b, options=options)
            assert report.duration > 0


def test_recovery_options_validation():
    with pytest.raises(ValueError):
        RecoveryOptions(lock_mode="rcu")
    with pytest.raises(ValueError):
        RecoveryOptions(planner="oracle")
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
    manager.recover_double_failure(a, b)
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
    strand the queue slot -- so ``all_of`` fails, the monitor's
    ``tolerate_loss`` mode records the superchunk as lost, and the
    surviving pullers drain on their own.  Returns (report instant, end
    instant, solves, deadline pushes), checking what must hold on either
    lane along the way."""
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="tokens")
    write_some_data(dfs, files=6)
    a, b = pick_sharing_pair(dfs)
    shared = dfs.layout.shared(a, b)
    manager = RecoveryManager(dfs)
    lost_source = manager._pick_lost_source(a, b, shared)
    victim = dfs.datanode_by_name(
        min(
            dfs.layout.superchunk(sc_id).mirror_of(lost_source.name)
            for sc_id in dfs.layout.superchunks_of(lost_source.name)
            if sc_id != shared
        )
    )
    sim = dfs.sim
    t0 = sim.now
    seen = {}

    def saboteur():
        yield sim.timeout(0.004)  # inside the first 1 MiB source read
        victim.disk.fail()

    def recovery():
        options = RecoveryOptions(chunk_size=units.MiB, nic_index=1)
        seen["report"] = yield from manager.double_failure_body(
            a, b, options=options, remirror_rest=False, install=False,
            tolerate_loss=True,
        )
        seen["at"] = sim.now - t0
        seen["active"] = dfs.switch.active_flows
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
    assert dfs.switch.active_flows == 0
    assert dfs.switch.audit_flow_conservation() == []
    assert victim.disk.stats.reads == 1
    assert victim.disk._queue.in_use == 0 and victim.disk._queue.queue_length == 0
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
