"""Unit tests for the server node model (CPU, devices, whole-node failure)."""

import pytest

from repro import units
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.node import CpuModel, Node


def test_compute_occupies_a_core():
    sim = Simulator()
    node = Node(sim, "n0", cpu=CpuModel(cores=1))
    finish = []

    def worker():
        yield from node.compute(1.0)
        finish.append(sim.now)

    sim.process(worker())
    sim.process(worker())
    sim.run()
    # One core: the second compute serializes behind the first.
    assert finish == [1.0, 2.0]


def test_multicore_compute_parallelism():
    sim = Simulator()
    node = Node(sim, "n0", cpu=CpuModel(cores=4))
    finish = []

    def worker():
        yield from node.compute(1.0)
        finish.append(sim.now)

    for _ in range(4):
        sim.process(worker())
    sim.run()
    assert finish == [1.0] * 4


def test_compute_bytes_scales_with_rate_and_intensity():
    sim = Simulator()
    node = Node(sim, "n0", cpu=CpuModel(cores=1, compute_rate=100 * units.MB))

    def body():
        yield from node.compute_bytes(200 * units.MB, intensity=0.5)

    sim.run_process(body())
    assert sim.now == pytest.approx(1.0)


def test_node_fail_takes_down_disks():
    sim = Simulator()
    node = Node(sim, "n0")
    disk_a = node.add_disk()
    disk_b = node.add_disk()
    node.fail()
    assert not node.alive
    assert disk_a.failed and disk_b.failed


def test_primary_accessors_require_devices():
    sim = Simulator()
    node = Node(sim, "n0")
    with pytest.raises(ValueError):
        node.primary_disk
    with pytest.raises(ValueError):
        node.primary_nic


def test_cluster_spec_builds_topology():
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=3, disks_per_node=2))
    assert len(cluster.nodes) == 3
    assert len(cluster.all_disks()) == 6
    # Two NICs per node: 10 Gbps primary, 1 Gbps secondary.
    node = cluster.nodes[1]
    assert len(node.nics) == 2
    assert node.nics[0].tx_rate > node.nics[1].tx_rate
    totals = cluster.total_disk_stats()
    assert totals["reads"] == 0


def test_cluster_without_secondary_nic():
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=2, secondary_nic_rate=None))
    assert len(cluster.nodes[0].nics) == 1
