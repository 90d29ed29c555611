"""Tests for heartbeat monitoring and automatic recovery."""

import itertools

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.monitor import ClusterMonitor, MonitorConfig
from repro.faults import Fault, FaultInjector, FaultSchedule
from repro.hdfs.config import DfsConfig
from repro.obs.tracer import Tracer, capture
from repro.sim.cluster import ClusterSpec


def cluster(num_nodes=8, per_disk=3):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=per_disk,
    )


def write_data(dfs, files=6):
    def body():
        procs = [
            dfs.sim.process(dfs.clients[i % len(dfs.clients)].write_file(f"/f{i}", 3 * units.MiB))
            for i in range(files)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(body())


def run_monitored(dfs, monitor, scenario_body, horizon=120.0):
    """Start the monitor, run a scenario process, stop, drain."""
    monitor.start()
    done = dfs.sim.process(scenario_body, name="scenario")
    dfs.sim.run(until=horizon)
    assert done.triggered
    monitor.stop()
    dfs.sim.run()
    return done.value


def test_config_validation():
    with pytest.raises(ValueError):
        MonitorConfig(heartbeat_interval=0)
    with pytest.raises(ValueError):
        MonitorConfig(heartbeat_interval=5.0, dead_after=1.0)


def test_heartbeats_keep_healthy_nodes_fresh():
    dfs = cluster()
    monitor = ClusterMonitor(dfs)

    def scenario():
        yield dfs.sim.timeout(30.0)

    run_monitored(dfs, monitor, scenario())
    for datanode in dfs.datanodes:
        assert monitor._last_heartbeat[datanode.name] > 20.0
    assert monitor.detected == []


def test_single_disk_failure_is_detected_and_recovered():
    dfs = cluster()
    write_data(dfs)
    monitor = ClusterMonitor(dfs)
    victim = dfs.datanodes[0]

    def scenario():
        yield dfs.sim.timeout(5.0)
        victim.disk.fail()
        yield dfs.sim.timeout(60.0)

    run_monitored(dfs, monitor, scenario())
    assert any(victim.name in names for _t, names in monitor.detected)
    assert monitor.reports, "no recovery ran"
    assert dfs.layout.is_fully_mirrored
    dfs.verify_mirrors()
    dfs.verify_parity()
    # Detection respects the staleness bound.
    detect_time = monitor.detected[0][0]
    assert detect_time >= 5.0 + monitor.config.dead_after - monitor.config.heartbeat_interval


def test_double_failure_triggers_lstor_reconstruction():
    dfs = cluster()
    write_data(dfs, files=8)
    a, b = next(
        (x, y)
        for x in dfs.layout.disks
        for y in dfs.layout.disks
        if x < y and dfs.layout.shared(x, y) is not None
    )
    monitor = ClusterMonitor(dfs)

    def scenario():
        yield dfs.sim.timeout(5.0)
        dfs.datanode_by_name(a).disk.fail()
        dfs.datanode_by_name(b).disk.fail()
        yield dfs.sim.timeout(90.0)

    run_monitored(dfs, monitor, scenario(), horizon=200.0)
    reconstructed = [r for r in monitor.reports if r.reconstructed]
    assert reconstructed, "the shared superchunk was not reconstructed"
    assert dfs.layout.is_fully_mirrored
    dfs.verify_mirrors()
    dfs.verify_parity()


def test_non_sharing_double_failure_runs_one_recovery():
    dfs = cluster(num_nodes=9, per_disk=2)
    write_data(dfs, files=4)
    pair = next(
        (x, y)
        for x in dfs.layout.disks
        for y in dfs.layout.disks
        if x < y and dfs.layout.shared(x, y) is None
    )
    monitor = ClusterMonitor(dfs)

    def scenario():
        yield dfs.sim.timeout(5.0)
        for name in pair:
            dfs.datanode_by_name(name).disk.fail()
        yield dfs.sim.timeout(90.0)

    run_monitored(dfs, monitor, scenario(), horizon=200.0)
    (report,) = monitor.reports
    assert sorted(report.failed_disks) == sorted(pair)
    assert report.reconstructed == [] and report.lost_superchunks == []
    assert dfs.layout.is_fully_mirrored
    dfs.verify_mirrors()


def test_stop_lets_simulation_drain():
    dfs = cluster()
    monitor = ClusterMonitor(dfs)
    monitor.start()
    dfs.sim.run(until=10.0)
    monitor.stop()
    dfs.sim.run()  # must terminate without DeadlockError
    assert not dfs.sim._heap


# ----------------------------------------------------------------------
# Dead sets the old single/double split lost data on.
# ----------------------------------------------------------------------
FAST = MonitorConfig(heartbeat_interval=0.5, dead_after=2.0, sweep_interval=0.5)


def run_faults(dfs, faults, horizon=30.0):
    """Inject ``faults`` through the fault injector under a fast monitor,
    run ``horizon`` seconds past now, stop and drain."""
    monitor = ClusterMonitor(dfs, FAST)
    injector = FaultInjector(dfs, FaultSchedule(tuple(faults)), monitor=monitor)
    end = dfs.sim.now + horizon
    monitor.start()
    injector.start()
    dfs.sim.run(until=end)
    monitor.stop()
    dfs.sim.run()
    assert injector.done and dfs.sim._grants == {}
    return monitor


def block_contents(dfs):
    """Every block's content, read from its first replica."""
    return {
        loc.block.name: dfs.datanode_by_name(loc.datanodes[0]).content_of(loc.block.name)
        for loc in dfs.namenode.all_blocks()
    }


def assert_survivors_bit_exact(dfs, expected):
    for loc in dfs.namenode.all_blocks():
        for name in loc.datanodes:
            assert dfs.datanode_by_name(name).content_of(loc.block.name) == expected[loc.block.name]


@pytest.mark.parametrize("delay", [0.0005, 0.03])
def test_partner_failing_mid_remirror_is_decoded_by_its_own_recovery(delay):
    """n0 fails, and its recovery copies superchunk 0 from n1, n0's
    sharing partner (39 ms for all of n0's remirrors).  n1 dies
    ``delay`` into that copy, which aborts, and is detected alone two
    seconds later.  No disk outside {n1} holds superchunk 0 any more,
    so n1's own recovery decodes it through n1's intact Lstor: no block
    is lost."""

    def loaded():
        dfs = cluster()
        write_data(dfs, files=8)
        assert dfs.layout.shared("n0", "n1") == 0
        return dfs

    probe = loaded()
    n0_fails = Fault(probe.sim.now + 1.0, "disk_fail", "n0")
    ((detected_at, _names),) = run_faults(probe, [n0_fails]).detected

    dfs = loaded()
    expected = block_contents(dfs)
    monitor = run_faults(dfs, [n0_fails, Fault(detected_at + delay, "disk_fail", "n1")])
    assert dfs.namenode.lost_blocks() == []
    assert dfs.layout.is_fully_mirrored
    first, second = monitor.reports
    assert first.failed_disks == ("n0",) and first.duration > delay
    assert [entry[0] for entry, _exc in first.failed_remirrors] == [0]
    assert second.failed_disks == ("n1",)
    assert second.reconstructed == [0] and second.lost_superchunks == []
    dfs.verify_mirrors()
    dfs.verify_parity()
    assert_survivors_bit_exact(dfs, expected)


#: One triple per shape: how many of its three pairs share a superchunk.
TRIPLES = {
    "three-apart": (("n0", "n3", "n5"), 0),
    "pair-and-apart": (("n0", "n1", "n4"), 1),
    "chain": (("n0", "n1", "n3"), 2),
    "triangle": (("n0", "n1", "n2"), 3),
}


@pytest.mark.parametrize("shape", list(TRIPLES))
def test_a_triple_failure_is_one_dead_set(shape):
    """Three disks fail at one instant on a 10-disk layout with 3
    superchunks per disk; the monitor hands all three to one recovery.
    Apart or with one sharing pair, that is plain remirroring plus one
    decode.  A chain (n0-n1 and n1-n3 share, n0-n3 do not) loses two
    superchunks, and each end's Lstor rebuilds one: the middle disk's
    chain runs through the other lost superchunk.  A triangle's three
    lost superchunks each have only broken chains: all three are
    recorded as lost, and everything else survives bit-exact."""
    with capture(Tracer(categories={"recovery"})) as tracer:
        dfs = cluster(num_nodes=10, per_disk=3)
    write_data(dfs, files=10)
    layout = dfs.layout
    dead, pairs = TRIPLES[shape]
    sharing = [
        layout.shared(a, b)
        for a, b in itertools.combinations(dead, 2)
        if layout.shared(a, b) is not None
    ]
    assert len(sharing) == pairs
    expected = block_contents(dfs)
    t_fail = dfs.sim.now + 1.0
    monitor = run_faults(dfs, [Fault(t_fail, "disk_fail", name) for name in dead])
    lost = dfs.namenode.lost_blocks()
    if shape == "triangle":
        assert lost and {loc.sc_id for loc in lost} <= set(sharing)
    else:
        assert lost == [] and layout.is_fully_mirrored
    (report,) = monitor.reports
    assert report.failed_disks == dead
    if shape == "triangle":
        assert report.reconstructed == []
        assert sorted(sc_id for sc_id, _exc in report.lost_superchunks) == sorted(sharing)
    else:
        assert report.reconstructed == sorted(sharing)
        assert report.lost_superchunks == [] and monitor.recovery_errors == []
    sources = {
        span.attrs["sc"]: span.attrs["source"]
        for span in tracer.events
        if span.name == "reconstruct"
    }
    if shape == "chain":
        assert sources == {0: "n0", 11: "n3"}
    layout.verify()
    dfs.verify_mirrors()
    dfs.verify_parity()
    assert_survivors_bit_exact(dfs, expected)


def test_an_unplaced_orphan_reaches_recovery_errors():
    """Four disks die at once and n4's orphan superchunk 12 has no legal
    receiver: the recovery still completes, and the monitor surfaces the
    orphan beside any loss."""
    dfs = cluster(num_nodes=10, per_disk=3)
    write_data(dfs, files=10)
    dead = ("n0", "n3", "n4", "n9")
    monitor = run_faults(dfs, [Fault(dfs.sim.now + 1.0, "disk_fail", name) for name in dead])
    (report,) = monitor.reports
    assert report.failed_disks == dead
    assert [sc_id for sc_id, _exc in report.unplaced_orphans] == [12]
    assert [str(exc) for _t, _dead, exc in monitor.recovery_errors] == [
        "superchunk 12: no legal receiver for the copy on n6"
    ]
    dfs.layout.verify()
    dfs.verify_mirrors()
    dfs.verify_parity()
