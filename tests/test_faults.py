"""Tests for the deterministic fault-injection subsystem."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.monitor import ClusterMonitor, MonitorConfig
from repro.faults import (
    Fault,
    FaultError,
    FaultInjector,
    FaultSchedule,
    chaos_schedule,
)
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def cluster(num_nodes=8):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,
    )


# ----------------------------------------------------------------------
# Schedule construction and validation.
# ----------------------------------------------------------------------
def test_fault_rejects_unknown_kind_and_bad_times():
    with pytest.raises(FaultError):
        Fault(at=1.0, kind="meteor_strike", target="n0")
    with pytest.raises(FaultError):
        Fault(at=-1.0, kind="disk_fail", target="n0")
    with pytest.raises(FaultError):
        Fault(at=1.0, kind="nic_degrade", target="n0", factor=1.5, duration=1.0)
    with pytest.raises(FaultError):
        Fault(at=1.0, kind="nic_degrade", target="n0", factor=0.5, duration=0.0)


def test_schedule_sorts():
    schedule = FaultSchedule(
        (
            Fault(at=5.0, kind="disk_fail", target="n1"),
            Fault(at=2.0, kind="disk_fail", target="n0"),
        )
    )
    assert [f.at for f in schedule] == [2.0, 5.0]
    assert len(schedule) == 2


def test_validate_rejects_unknown_targets():
    dfs = cluster()
    schedule = FaultSchedule((Fault(at=1.0, kind="disk_fail", target="bogus"),))
    with pytest.raises(FaultError):
        schedule.validate(dfs)
    with pytest.raises(FaultError):
        FaultInjector(dfs, schedule)


def test_chaos_schedule_is_deterministic_and_separated():
    dfs_a, dfs_b = cluster(), cluster()
    plan_a = chaos_schedule(dfs_a, seed=77)
    plan_b = chaos_schedule(dfs_b, seed=77)
    assert plan_a.faults == plan_b.faults
    assert chaos_schedule(cluster(), seed=78).faults != plan_a.faults
    # Detectable faults (disk failures, node crashes) are spread out so
    # only the intentional same-instant pairs are ever co-detected.
    detectable = sorted(
        {f.at for f in plan_a if f.kind in ("disk_fail", "node_crash")}
    )
    for earlier, later in zip(detectable, detectable[1:]):
        assert later - earlier >= 3.5 - 1e-9
    # The double failure is a same-instant sharing pair.
    by_time = {}
    for fault in plan_a:
        if fault.kind == "disk_fail":
            by_time.setdefault(fault.at, []).append(fault.target)
    pairs = [targets for targets in by_time.values() if len(targets) == 2]
    assert len(pairs) == 1
    a, b = pairs[0]
    assert dfs_a.layout.shared(a, b) is not None


def test_chaos_schedule_window_too_narrow():
    with pytest.raises(FaultError):
        chaos_schedule(cluster(), seed=1, window=(2.0, 4.0), min_gap=3.5)


# ----------------------------------------------------------------------
# Injection semantics, one kind at a time.
# ----------------------------------------------------------------------
def run_injector(dfs, schedule, monitor=None, horizon=30.0):
    injector = FaultInjector(dfs, schedule, monitor=monitor)
    injector.start()
    dfs.sim.run(until=horizon)
    assert injector.done
    return injector


def test_disk_fail_and_replace():
    dfs = cluster()
    victim = dfs.datanodes[0]
    schedule = FaultSchedule(
        (
            Fault(at=1.0, kind="disk_fail", target=victim.name),
            Fault(at=2.0, kind="disk_replace", target=victim.name),
        )
    )
    injector = run_injector(dfs, schedule)
    assert not victim.disk.failed
    assert [record.at for record in injector.injected] == [1.0, 2.0]


def test_node_crash_and_restart_without_monitor():
    dfs = cluster()
    victim = dfs.datanodes[0]
    schedule = FaultSchedule(
        (
            Fault(at=1.0, kind="node_crash", target=victim.node.name),
            Fault(at=5.0, kind="node_restart", target=victim.node.name),
        )
    )
    run_injector(dfs, schedule)
    assert victim.node.alive
    assert victim.alive


def test_node_restart_rejoins_through_monitor():
    dfs = cluster()
    monitor = ClusterMonitor(
        dfs, MonitorConfig(heartbeat_interval=0.5, dead_after=1.5, sweep_interval=0.5)
    )
    victim = dfs.datanodes[0]
    schedule = FaultSchedule(
        (
            Fault(at=1.0, kind="node_crash", target=victim.node.name),
            Fault(at=8.0, kind="node_restart", target=victim.node.name),
        )
    )
    monitor.start()
    injector = FaultInjector(dfs, schedule, monitor=monitor)
    injector.start()
    dfs.sim.run(until=20.0)
    monitor.stop()
    dfs.sim.run()
    assert any(name == victim.name for _t, name in monitor.rejoined)
    # Quarantine was lifted: a second crash of the same node is detectable.
    assert victim.name not in monitor._handled


def test_node_restart_before_detection_is_refused():
    """A user-built schedule may restart a node before its crash is even
    detected; its disk is still in the layout, so the rejoin is refused
    by name rather than readmitting replicas recovery never saw go."""
    dfs = cluster()
    monitor = ClusterMonitor(
        dfs, MonitorConfig(heartbeat_interval=0.5, dead_after=1.5, sweep_interval=0.5)
    )
    victim = dfs.datanodes[0]
    schedule = FaultSchedule(
        (
            Fault(at=1.0, kind="node_crash", target=victim.node.name),
            Fault(at=1.2, kind="node_restart", target=victim.node.name),
        )
    )
    monitor.start()
    FaultInjector(dfs, schedule, monitor=monitor).start()
    with pytest.raises(FaultError, match=f"{victim.name} rejoined before recovery"):
        dfs.sim.run(until=20.0)
    assert monitor.detected == [] and monitor.rejoined == []
    assert victim.name in dfs.layout.disks


def test_nic_degrade_restores_rates():
    dfs = cluster()
    node = dfs.datanodes[0].node
    nic = node.primary_nic
    before = (nic.tx_rate, nic.rx_rate)
    schedule = FaultSchedule(
        (
            Fault(
                at=1.0,
                kind="nic_degrade",
                target=node.name,
                factor=0.1,
                duration=2.0,
            ),
        )
    )
    run_injector(dfs, schedule, horizon=1.5)
    assert nic.tx_rate == pytest.approx(before[0] * 0.1)
    dfs.sim.run(until=10.0)
    assert (nic.tx_rate, nic.rx_rate) == pytest.approx(before)


def test_lstor_fail_keeps_disk_serving():
    dfs = cluster()

    def body():
        yield from dfs.clients[0].write_file("/f", 2 * units.MiB)

    dfs.sim.run_process(body())
    victim = dfs.datanodes[0]
    schedule = FaultSchedule((Fault(at=1.0, kind="lstor_fail", target=victim.name),))
    run_injector(dfs, schedule, horizon=5.0)
    assert victim.lstors.primary.failed
    assert not victim.disk.failed

    # The disk keeps absorbing writes (degraded to plain replication:
    # journal and parity silently inactive on the failed device).
    def rewrite():
        yield from dfs.clients[0].rewrite_file("/f")

    dfs.sim.run_process(rewrite())
    dfs.verify_mirrors()


def test_injector_cannot_start_twice():
    dfs = cluster()
    injector = FaultInjector(dfs, FaultSchedule())
    injector.start()
    with pytest.raises(FaultError):
        injector.start()
