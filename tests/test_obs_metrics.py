"""The cluster-wide metrics registry over live component instruments."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.hdfs.config import DfsConfig
from repro.obs.metrics import cluster_metrics, cluster_snapshot
from repro.sim.cluster import ClusterSpec


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
    snap = cluster_snapshot(loaded_cluster)
    disks = [dn.disk.name for dn in loaded_cluster.datanodes]
    for disk in disks:
        assert f"disk_writes{{disk={disk}}}" in snap["counters"]
        assert f"disk_queue_depth{{disk={disk}}}" in snap["gauges"]
        assert f"disk_io_latency{{disk={disk}}}" in snap["histograms"]
    assert "net_bytes_total" in snap["counters"]
    assert "net_active_flows" in snap["gauges"]
    assert "blocks_at_risk" in snap["gauges"]
    assert any(key.startswith("journal_outstanding{") for key in snap["gauges"])


def test_snapshot_reflects_workload_activity(loaded_cluster):
    dfs = loaded_cluster
    snap = cluster_snapshot(dfs)
    total_writes = sum(
        value for key, value in snap["counters"].items()
        if key.startswith("disk_writes{")
    )
    assert total_writes > 0
    assert snap["counters"]["net_bytes_total"] == dfs.total_network_bytes()
    # The solver's exact work counters ride next to the byte total.
    assert snap["counters"]["net_solves_total"] == dfs.switch.solves > 0
    assert (
        snap["counters"]["net_fill_steps_total"]
        == dfs.switch.fill_steps
        >= dfs.switch.solves
    )
    # Every effective re-rate pushed a deadline; every timer dispatch is
    # counted, idle ones (superseded, or nothing due) among them.
    assert (
        snap["counters"]["net_deadline_pushes_total"]
        == dfs.switch._push_seq
        >= dfs.switch.solves
    )
    assert (
        snap["counters"]["net_timer_fires_total"]
        == dfs.switch.timer_fires
        > snap["counters"]["net_timer_idle_total"]
        == dfs.switch.timer_idle_fires
        >= 0
    )
    # The workload drained: nothing in flight, nothing at risk.
    assert snap["gauges"]["net_active_flows"]["current"] == 0.0
    assert snap["gauges"]["net_active_flows"]["max"] >= 1.0
    assert snap["gauges"]["blocks_at_risk"]["current"] == 0.0
    # Disk latency histograms saw every timed operation (I/Os + syncs).
    sampled = sum(
        row["count"] for key, row in snap["histograms"].items()
        if key.startswith("disk_io_latency{")
    )
    assert sampled == sum(
        dn.disk.stats.ios + dn.disk.stats.syncs for dn in dfs.datanodes
    )


def test_counter_views_track_later_activity_without_reregistration(loaded_cluster):
    """Regression: counters must be live views, not registration-time copies.

    An earlier registry design snapshotted component counts into owned
    Counters at build time, so any registry built before a workload (the
    sampler's situation) reported zeros forever.
    """
    dfs = loaded_cluster
    metrics = cluster_metrics(dfs)
    before = metrics.as_dict()["counters"]["net_bytes_total"]

    def more_work():
        yield from dfs.clients[0].write_file("/m/live-view-extra", units.MiB)

    dfs.sim.run_process(more_work())
    after = metrics.as_dict()["counters"]["net_bytes_total"]
    assert after > before
    assert after == dfs.total_network_bytes()
    # The view itself refuses mutation: the component owns the count.
    view = metrics._counters["net_bytes_total"]
    with pytest.raises(TypeError, match="read-only"):
        view.add(1)


def test_registry_is_live_not_a_copy(loaded_cluster):
    dfs = loaded_cluster
    metrics = cluster_metrics(dfs)
    disk = dfs.datanodes[0].disk
    key = f"disk_io_latency{{disk={disk.name}}}"
    before = metrics.as_dict()["histograms"][key]["count"]
    disk.io_latency.observe(0.001)
    after = metrics.as_dict()["histograms"][key]["count"]
    assert after == before + 1
    # Re-registering into the same set refreshes counters in place.
    again = cluster_metrics(dfs, metrics)
    assert again is metrics
