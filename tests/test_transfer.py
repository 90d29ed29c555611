"""The fluid ``Transfer`` body against the per-chunk oracle.

Every rebuild stream runs its first chunk chunk by chunk and the rest as
one body (``sim/network.py``: ``Switch.stream``); ``tests/oracles.py``
keeps the chunk loop over the whole stream (``discrete_lane``).  The
differential rows hold Table 2 to 1% and to the oracle's orderings (the
RAID-6 4 MB rows cost the oracle ~5.5 s each and run under
``make shapes``), and so do the parallel halves, whose runs share
disks; the fault tests pin what a body does when its disk dies, when a
NIC changes rate under it, when its shared stage saturates for part of
the run, and when a queued I/O takes its disk.
"""

import pytest

from repro import units
from repro.core import recovery
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager, RecoveryOptions
from repro.errors import DiskFailedError
from repro.experiments import table2_recovery as t2
from repro.experiments.common import build_raidp, pick_scale
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from repro.sim.disk import Disk, DiskRun
from repro.sim.engine import Simulator
from repro.sim import snapshot
from repro.sim.network import Nic, Stage, Switch
from tests.oracles import assert_rows_agree, discrete_lane, table2_differential
from tests.test_recovery import pick_sharing_pair, sparse_cluster, write_some_data


def _held(stage):
    """Does a chunk outside every body hold the stage's lock now?"""
    return stage.port is not None and stage.port.nic.tx_rate == 0.0


@pytest.fixture
def pullers(monkeypatch):
    """Every ``_Pullers`` (one reconstruction's timed plane) built in the test."""
    made = []

    class Recorded(recovery._Pullers):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(recovery, "_Pullers", Recorded)
    return made


def test_cheap_table2_rows_agree_with_the_chunk_loop(monkeypatch):
    """Every 64 MB row plus the 4 MB @10G RAIDP pair: within 1% of the
    oracle, in the oracle's order."""
    keys = [
        key
        for key in t2.tasks()
        if (key[2] if key[0] == "raidp" else key[1]) == 64 * units.MiB
        or (key[0] == "raidp" and key[3] == 0)
    ]
    fluid, oracle = table2_differential(keys, monkeypatch)
    assert len(oracle) == 8
    assert_rows_agree(fluid, oracle)
    # The paper's @10Gbps order, which the near-tie sc64 < sc4 decides.
    at_10g = [fluid[("raidp", mode, chunk, 0, 1)] for mode, chunk, *_ in t2.RAIDP_ROWS]
    assert at_10g == sorted(at_10g)


def test_single_chunk_streams_take_no_body(pullers):
    """A stream of one chunk never enters the body: 4 MiB superchunks
    at the default 4 MiB chunk (the chaos soak's shape)."""
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="tokens")
    write_some_data(dfs)
    a, b = pick_sharing_pair(dfs)
    report = RecoveryManager(dfs).recover((a, b))
    assert report.reconstructed
    (plane,) = pullers
    assert plane.bodies == []


def test_a_finished_rebuild_holds_no_open_body():
    """After a fluid rebuild the cluster is quiescent: no flow, no disk
    run, no held stage -- so it snapshots like any other."""
    dfs = build_raidp(pick_scale(False), seed=1)
    options = RecoveryOptions(chunk_size=64 * units.MiB)
    RecoveryManager(dfs).recover(("n0", "n1"), options, reconstruct_only=True)
    assert len(dfs.switch._flows) == 0 and dfs.switch._disk_ports == {}
    assert all(dn.disk._runs == {} for dn in dfs.datanodes)
    assert snapshot.restore(snapshot.capture(dfs)).sim.now == dfs.sim.now


@pytest.mark.parametrize(
    "lock_mode, chunk, nic_index, bound",
    [
        ("superchunk", 4 * units.MiB, 0, "lock"),
        ("byte_range", 64 * units.MiB, 0, "bus"),
        ("byte_range", 4 * units.MiB, 0, "nic"),
        ("superchunk", 64 * units.MiB, 1, "nic"),
    ],
)
def test_the_reconstruct_span_names_what_bound_the_rebuild(lock_mode, chunk, nic_index, bound):
    """Why is superchunk 4 MB @10G 200 s?  ``raidpctl trace`` answers
    from the ``reconstruct`` span: the lock."""
    from repro.obs.export import render_summary
    from repro.obs.tracer import capture

    with capture() as tracer:
        dfs = build_raidp(pick_scale(False), seed=1)
        options = RecoveryOptions(lock_mode=lock_mode, chunk_size=chunk, nic_index=nic_index)
        RecoveryManager(dfs).recover(("n0", "n1"), options, reconstruct_only=True)
    (span,) = [e for e in tracer.events if e.name == "reconstruct"]
    assert span.attrs["bound"] == bound
    assert f"pullers=15, bound={bound}" in render_summary(tracer.events)


# ----------------------------------------------------------------------
# Faults and rate changes under a body.
# ----------------------------------------------------------------------
def test_source_disk_failing_inside_a_body_is_a_tolerated_loss(pullers):
    """A mirror's disk dies while its puller is mid-body (4 MiB
    superchunks, 1 MiB chunks, 1 Gbps: the first chunks are in by
    ~25 ms).  The body ends at the fault instant with the bytes it
    moved, ``DiskFailedError`` fails the puller, and the loss is
    recorded at that same instant; nothing stays open or held."""
    dfs = sparse_cluster(num_nodes=8, per_disk=3, payload_mode="tokens")
    write_some_data(dfs, files=6)
    a, b = pick_sharing_pair(dfs)
    shared = dfs.layout.shared(a, b)
    manager = RecoveryManager(dfs)
    (_source, chain), *_ = manager._decoders(shared, (a, b))
    victim = dfs.datanode_by_name(chain[min(chain)])
    sim, switch = dfs.sim, dfs.switch
    t0 = sim.now
    seen = {}

    def saboteur():
        yield sim.timeout(0.045)
        (plane,) = pullers
        seen["bodies"] = len(switch._flows)
        assert [body for body in plane.bodies if not body.finished]
        seen["fault"] = sim.now
        victim.disk.fail()

    def rebuild():
        options = RecoveryOptions(chunk_size=units.MiB, nic_index=1)
        seen["report"] = yield from manager.failure_body(
            (a, b), options, reconstruct_only=True
        )
        seen["at"] = sim.now

    sim.process(saboteur())
    sim.process(rebuild())
    sim.run()
    ((lost_sc, error),) = seen["report"].lost_superchunks
    assert lost_sc == shared and isinstance(error, DiskFailedError)
    assert seen["at"] == seen["fault"] > t0
    assert seen["bodies"] == 3
    # The cut body banked what it moved: one first-chunk read plus one
    # run, and the NICs' accounting balances.
    stats = victim.disk.stats
    assert stats.reads == 2 and units.MiB < stats.bytes_read < 4 * units.MiB
    assert len(switch._flows) == 0 and switch._disk_ports == {}
    assert switch.audit_flow_conservation() == []
    assert victim.disk.audit_state() == [] and victim.disk._runs == {}
    (plane,) = pullers
    assert not _held(plane.stage)
    assert plane.lock_whole.in_use == 0 and plane.memory_bus.in_use == 0
    assert plane.lock_ranges._held == [] and len(plane.lock_ranges._waiters) == 0


def test_receiver_nic_rate_change_re_rates_the_bodies(pullers, monkeypatch):
    """Byte-range 4 MB @10G until the receiver's NIC drops to 1 Gbps
    60 s in: the bodies are re-rated at that instant and the rebuild
    ends where the chunk loop ends it, within 1%.  (A chunk loop keeps
    one chunk per stream fetched ahead of its XOR, which a body does
    not model: at 64 MB chunks that is ~1 GB the slow NIC never carries,
    and the body ends 1.5% late.)"""

    def rebuild():
        dfs = build_raidp(pick_scale(False), seed=1)
        receiver = "n2"
        rx = dfs.datanode_by_name(receiver).node.nics[0]
        sim = dfs.sim

        def degrade():
            yield sim.timeout(60.0)
            dfs.switch.set_nic_rates(rx, rx_rate=units.gbps(1))

        sim.process(degrade())
        return RecoveryManager(dfs).recover(
            ("n0", "n1"), RecoveryOptions(), reconstruct_only=True
        ).duration

    fluid = rebuild()
    (plane,) = pullers
    assert plane.bound() == "nic"
    assert fluid > 2 * t2.run_task(("raidp", "byte_range", 4 * units.MiB, 0, 1))
    discrete_lane(monkeypatch)
    assert fluid == pytest.approx(rebuild(), rel=0.01)


def test_a_shared_stage_saturated_for_part_of_the_rebuild(pullers, monkeypatch):
    """Superchunk lock, 1 MiB chunks, 32 MiB superchunks @10G: three
    streams whose own chunk cycles (~104 MB/s for the two disk-bound
    mirrors, ~300 MB/s for the parity, which reads no disk) add up to
    more than the lock passes (~396 MB/s).  The lock binds until the
    parity finishes first; the mirrors then run at their disks' pace.
    The chunk loop's FIFO lock also makes the mirrors queue behind the
    parity's holds, which max-min sharing does not, so the fluid rebuild
    is ~1.6% early -- pinned here inside 2%."""

    def rebuild():
        dfs = RaidpCluster(
            spec=ClusterSpec(num_nodes=8),
            config=DfsConfig(block_size=units.MiB, replication=2),
            raidp=RaidpConfig(),
            superchunk_size=32 * units.MiB,
            superchunks_per_disk=3,
            payload_mode="tokens",
        )
        a, b = pick_sharing_pair(dfs)
        options = RecoveryOptions(lock_mode="superchunk", chunk_size=units.MiB)
        return RecoveryManager(dfs).recover(
            (a, b), options, reconstruct_only=True
        ).duration

    fluid = rebuild()
    (plane,) = pullers
    ends = {body.disk is None: body.started_at + body.done.value for body in plane.bodies}
    bounds = sorted((body.disk is None, body.bound) for body in plane.bodies)
    assert bounds == [(False, "disk"), (False, "disk"), (True, "lock")]
    assert ends[True] < 0.6 * ends[False]  # the parity body is done first
    assert plane.bound() == "disk"
    discrete_lane(monkeypatch)
    assert fluid == pytest.approx(rebuild(), rel=0.02)


@pytest.mark.parametrize(
    "lock_mode, chunk, bound, rel",
    [
        ("byte_range", 4 * units.MiB, "disk", 0.01),
        ("superchunk", 4 * units.MiB, "lock", 0.01),
        ("byte_range", 64 * units.MiB, "bus", 0.035),
    ],
)
def test_parallel_halves_agree_with_the_chunk_loop(
    lock_mode, chunk, bound, rel, pullers, monkeypatch
):
    """§3.3's two halves at once on the 16-node, 6 GiB layout
    (``tests/test_parallel_halves.py``): each of the 14 surviving disks
    feeds a body in both halves, so the two runs on it split its rate,
    less a head move per chunk.  Byte-range 4 MB: that split binds
    (~62 MB/s a stream, where the NICs would pass ~83).  Superchunk
    lock: the locks bind, and the half that finishes first writes its
    assembly onto a disk the other half still reads, which then takes
    turns with those writes.  Both within 1% of the chunk loop.  At
    64 MB the bus binds, but the two runs keep each disk ~90% busy and
    the chunk loop's reads queue on it, which max-min sharing does not
    model: the fluid rebuild is ~3.0% early.  No disk is ever busy for
    longer than the rebuild ran."""

    def rebuild():
        dfs = RaidpCluster(
            spec=ClusterSpec(num_nodes=16),
            config=DfsConfig(replication=2),
            raidp=RaidpConfig(),
            superchunk_size=6 * units.GiB,
            payload_mode="tokens",
        )
        options = RecoveryOptions(parallel_halves=True, lock_mode=lock_mode, chunk_size=chunk)
        duration = RecoveryManager(dfs).recover(
            ("n0", "n1"), options, reconstruct_only=True
        ).duration
        assert max(dn.disk.stats.busy_seconds for dn in dfs.datanodes) <= dfs.sim.now
        assert dfs.switch._disk_ports == {}
        return duration

    fluid = rebuild()
    assert [plane.bound() for plane in pullers] == [bound, bound]
    discrete_lane(monkeypatch)
    assert fluid == pytest.approx(rebuild(), rel=rel)


# ----------------------------------------------------------------------
# The body on its own.
# ----------------------------------------------------------------------
def _rig():
    sim = Simulator()
    switch = Switch(sim)
    a, b = switch.attach(Nic("a", units.gbps(10))), switch.attach(Nic("b", units.gbps(10)))
    return sim, switch, a, b, Disk(sim, name="d")


def test_a_private_body_runs_one_chunk_per_cycle():
    """Without a shared stage the stage adds serially: n chunks take
    n x (max(disk, wire + latency) + stage) seconds, plus the delivery
    latency."""
    sim, switch, a, b, disk = _rig()
    chunk, stage_s = 4 * units.MiB, 0.005
    body = switch.stream(a, b, 10 * chunk, chunk, stage_s, disk=DiskRun(disk, "read", 0))
    sim.run()
    cycle = max(chunk / disk.geometry.transfer_rate, chunk / units.gbps(10) + switch.BASE_LATENCY)
    assert sim.now == pytest.approx(10 * (cycle + stage_s) + switch.BASE_LATENCY)
    assert body.bound == "disk" and body.done.triggered and body.done._exception is None
    assert (disk.stats.reads, disk.stats.bytes_read, disk.head) == (1, 10 * chunk, 10 * chunk)
    assert disk.queue_gauge.current == 0 and disk.io_latency.total == 0
    assert a.stats.bytes_sent == b.stats.bytes_received == 10 * chunk


def test_a_held_stage_stalls_its_bodies_until_release():
    sim, switch, a, b, _disk = _rig()
    stage = Stage("lock", 100 * units.MB)
    switch.stream(a, b, 100 * units.MB, units.MiB, 0.0, shared=stage)

    def holder():
        yield sim.timeout(0.25)
        switch.hold_stage(stage, True)
        yield sim.timeout(0.5)
        switch.hold_stage(stage, False)

    sim.process(holder())
    sim.run()
    # One second of lock-bound work, half a second of it stalled.
    assert sim.now == pytest.approx(1.5 + switch.BASE_LATENCY)
    assert not _held(stage)


def test_two_runs_on_one_disk_split_it_and_pay_the_head_moves():
    """Their chunk reads would interleave through the FIFO, each after a
    head move between the two regions: each run gets one chunk per
    two reads and two moves."""
    sim, switch, a, b, disk = _rig()
    c = switch.attach(Nic("c", units.gbps(10)))
    chunk, far = 4 * units.MiB, units.TB
    switch.stream(a, b, 10 * chunk, chunk, 0.0, disk=DiskRun(disk, "read", 0))
    switch.stream(a, c, 10 * chunk, chunk, 0.0, disk=DiskRun(disk, "read", far))
    sim.run()
    geometry = disk.geometry
    per_chunk = (
        2 * geometry.transfer_time(chunk)
        + geometry.reposition_time(far + chunk)
        + geometry.reposition_time(far - chunk)
    )
    assert sim.now == pytest.approx(10 * per_chunk + switch.BASE_LATENCY)
    assert disk.stats.busy_seconds < sim.now
    assert switch._disk_ports == {} and disk._runs == {}


def test_a_queued_io_gives_the_runs_their_turn_then_stalls_them():
    """A read queued on the disk mid-body waits while the run takes the
    chunk it would have had queued ahead of it, then the run stalls for
    exactly the read's service, and both charge the disk's time."""
    sim, switch, a, b, disk = _rig()
    chunk, far = 4 * units.MiB, units.TB
    geometry = disk.geometry
    body = switch.stream(a, b, 10 * chunk, chunk, 0.0, disk=DiskRun(disk, "read", 0))
    seen = {}

    def reader():
        yield sim.timeout(0.1)
        seen["service"] = yield disk.start_io("read", far, units.MiB)
        seen["done"] = sim.now

    sim.process(reader())
    sim.run()
    service = geometry.reposition_time(far) + geometry.transfer_time(units.MiB)
    assert seen["service"] == pytest.approx(service)
    assert seen["done"] == pytest.approx(0.1 + geometry.transfer_time(chunk) + service)
    run_s = geometry.transfer_time(10 * chunk)
    assert sim.now == pytest.approx(run_s + service + switch.BASE_LATENCY)
    assert body.bound == "disk" and body.done.triggered and body.done._exception is None
    assert disk.stats.busy_seconds <= sim.now
    assert disk.io_latency.total == 1 and disk.queue_gauge.current == 0


def test_a_body_on_a_dead_disk_fails_through_its_event():
    """Never at the call, and nothing enters the switch."""
    sim, switch, a, b, disk = _rig()
    disk.fail()
    body = switch.stream(a, b, units.MiB, units.MiB, 0.0, disk=DiskRun(disk, "read", 0))
    with pytest.raises(DiskFailedError):
        sim.run_process(_await(body.done))
    assert len(switch._flows) == 0 and a.stats.flows_started == 0


def _await(event):
    yield event
