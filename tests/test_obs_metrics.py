"""The one reader over live component instruments (``obs.metrics``)."""

import re

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.monitor import ClusterMonitor, MonitorConfig
from repro.core.node import RaidpConfig
from repro.errors import DfsError
from repro.faults import Fault, FaultInjector, FaultSchedule
from repro.hdfs.config import DfsConfig
from repro.obs.metrics import read_cluster
from repro.sim.cluster import ClusterSpec
from tests.oracles import RegistryReader


@pytest.fixture(scope="module")
def loaded_cluster():
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(),
        superchunk_size=4 * units.MiB,
        payload_mode="tokens",
        seed=11,
    )

    def workload():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/m/f{index}", 2 * units.MiB)

    dfs.sim.run_process(workload())
    return dfs


def test_snapshot_covers_every_component(loaded_cluster):
    readings, histograms = read_cluster(loaded_cluster)
    for datanode in loaded_cluster.datanodes:
        disk = datanode.disk.name
        assert f"disk_writes{{disk={disk}}}" in readings
        assert f"disk_queue_depth{{disk={disk}}}" in readings
        assert f"disk_io_latency{{disk={disk}}}" in histograms
        assert f"dn_blocks_written{{dn={datanode.name}}}" in readings
        journal = datanode.lstors.primary.name
        assert f"journal_outstanding{{journal={journal}}}" in readings
    assert "client_degraded_reads{client=0}" in readings
    assert "net_bytes_total" in readings
    assert "net_active_flows" in readings
    assert "blocks_at_risk" in readings
    # The repair accounting needs the monitor; without one it is absent.
    assert "repair_bytes_total" not in readings
    assert "repair_bytes_total" in read_cluster(
        loaded_cluster, ClusterMonitor(loaded_cluster)
    )[0]


def test_series_key_format(loaded_cluster):
    """``name`` for the cluster-wide series, ``name{label=value}`` with
    the component's own name for the rest; every reading a float."""
    readings, histograms = read_cluster(loaded_cluster)
    assert {
        "disk_reads{disk=n3.d0}", "disk_queue_depth{disk=n3.d0}",
        "dn_blocks_read{dn=n3}", "journal_used_bytes{journal=n3.lstor.L0}",
        "client_pipeline_recoveries{client=3}", "net_solves_total",
    } <= set(readings)
    assert "disk_io_latency{disk=n3.d0}" in histograms
    pattern = re.compile(r"[a-z_]+(\{(disk|dn|journal|client)=[\w.]+\})?")
    assert all(pattern.fullmatch(key) for key in [*readings, *histograms])
    assert all(type(value) is float for value in readings.values())


def test_snapshot_reflects_workload_activity(loaded_cluster):
    dfs = loaded_cluster
    readings, histograms = read_cluster(dfs)
    total_writes = sum(
        value for key, value in readings.items() if key.startswith("disk_writes{")
    )
    assert total_writes > 0
    assert readings["net_bytes_total"] == dfs.total_network_bytes()
    # The solver's exact work counters ride next to the byte total.
    assert readings["net_solves_total"] == dfs.switch.solves > 0
    assert (
        readings["net_fill_steps_total"] == dfs.switch.fill_steps >= dfs.switch.solves
    )
    # Every effective re-rate pushed a deadline; every timer dispatch is
    # counted, idle ones (superseded, or nothing due) among them.
    assert (
        readings["net_deadline_pushes_total"]
        == dfs.switch._push_seq
        >= dfs.switch.solves
    )
    assert (
        readings["net_timer_fires_total"]
        == dfs.switch.timer_fires
        > readings["net_timer_idle_total"]
        == dfs.switch.timer_idle_fires
        >= 0
    )
    # The workload drained: nothing in flight, nothing at risk.
    assert readings["net_active_flows"] == 0.0
    assert dfs.switch.flows_gauge.max_value >= 1.0
    assert readings["blocks_at_risk"] == 0.0
    # Disk latency histograms saw every timed operation (I/Os + syncs).
    sampled = sum(
        hist.total for key, hist in histograms.items()
        if key.startswith("disk_io_latency{")
    )
    assert sampled == sum(
        dn.disk.stats.ios + dn.disk.stats.syncs for dn in dfs.datanodes
    )


def test_later_activity_is_visible_without_reregistration(loaded_cluster):
    """Regression: a reading is as current as the call that took it.

    An early registry design copied component counts into owned counters
    at build time, so anything built before a workload (the sampler's
    situation) reported zeros forever.  The reader holds nothing between
    calls, so there is nothing to go stale.
    """
    dfs = loaded_cluster
    before = read_cluster(dfs)[0]["net_bytes_total"]

    def more_work():
        yield from dfs.clients[0].write_file("/m/live-view-extra", units.MiB)

    dfs.sim.run_process(more_work())
    after = read_cluster(dfs)[0]["net_bytes_total"]
    assert after > before
    assert after == dfs.total_network_bytes()


def test_histograms_are_live_not_a_copy(loaded_cluster):
    dfs = loaded_cluster
    disk = dfs.datanodes[0].disk
    key = f"disk_io_latency{{disk={disk.name}}}"
    hist = read_cluster(dfs)[1][key]
    assert hist is disk.io_latency
    before = hist.total
    disk.io_latency.observe(0.001)
    assert read_cluster(dfs)[1][key].total == before + 1


def test_reader_equals_the_registry_of_views_it_replaced():
    """The differential that licenses the replacement: on a 16-node
    ByteStore cluster under traffic, a disk failure, a node crash and the
    node's rejoin, every key and value the reader returns ``==`` what the
    parent's ``MetricSet`` + ``cluster_metrics`` (built once, before any
    work) flattens to at the same instant."""
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=16),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=3,
        payload_mode="bytes",
        seed=7,
    )
    monitor = ClusterMonitor(
        dfs, MonitorConfig(heartbeat_interval=0.5, dead_after=2.0, sweep_interval=0.5)
    )
    oracle = RegistryReader(dfs, monitor)
    crashed = dfs.cluster.nodes[9].name
    injector = FaultInjector(
        dfs,
        FaultSchedule((
            Fault(0.3, "disk_fail", dfs.datanodes[3].name),
            Fault(6.0, "node_crash", crashed),
            Fault(14.0, "node_restart", crashed),
        )),
        monitor=monitor,
    )

    def write(client, path):
        try:
            yield from client.write_file(path, 2 * units.MiB)
        except DfsError:
            pass  # a write that lost its pipeline to a fault

    def traffic():
        for round_ in range(40):
            yield dfs.sim.all_of([
                dfs.sim.process(write(client, f"/d/r{round_}c{index}"))
                for index, client in enumerate(dfs.clients)
            ])
            yield dfs.sim.timeout(0.3)

    def agree(until=None):
        dfs.sim.run(until=until)
        readings, histograms = read_cluster(dfs, monitor)
        want_readings, want_histograms = oracle.flat(dfs.sim.now)
        assert readings == want_readings
        assert {
            key: (hist.counts, hist.sum, hist.max) for key, hist in histograms.items()
        } == want_histograms
        return readings

    monitor.start()
    injector.start()
    dfs.sim.process(traffic(), name="traffic")
    loaded = agree(0.5)  # mid-workload, the first disk already dead
    assert sum(v for k, v in loaded.items() if k.startswith("journal_outstanding")) > 0
    assert loaded["net_bytes_total"] > 0
    assert agree(4.0)["recoveries_total"] == 1.0  # the disk's recovery is done
    storm = agree(8.0)  # the crashed node's recovery in flight
    assert storm["net_active_flows"] > 0 and storm["blocks_at_risk"] > 0
    healed = agree(12.0)
    assert healed["recoveries_total"] == 2.0 and healed["blocks_at_risk"] == 0.0
    assert healed["repair_bytes_total"] > 0
    agree(16.0)
    assert monitor.rejoined == [(14.0, crashed)]
    monitor.stop()
    assert len(agree()) == len(loaded) == 251
