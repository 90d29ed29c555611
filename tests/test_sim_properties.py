"""Hypothesis property tests on the simulation substrate's invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.disk import Disk, DiskGeometry
from repro.sim.engine import Simulator
from repro.sim.network import Nic, Switch


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_network_conserves_bytes_under_random_flows(data):
    """Whatever the flow schedule, delivered bytes equal requested bytes
    and every flow completes."""
    sim = Simulator()
    switch = Switch(sim)
    nics = [switch.attach(Nic(f"n{i}", units.gbps(10))) for i in range(5)]
    num_flows = data.draw(st.integers(min_value=1, max_value=15), label="flows")
    total = 0
    completions = []

    def flow_proc(src, dst, nbytes, delay):
        yield sim.timeout(delay)
        yield switch.transfer(src, dst, nbytes)
        completions.append(nbytes)

    for index in range(num_flows):
        src = nics[data.draw(st.integers(0, 4), label=f"src{index}")]
        dst_index = data.draw(st.integers(0, 4), label=f"dst{index}")
        dst = nics[dst_index] if nics[dst_index] is not src else nics[(dst_index + 1) % 5]
        nbytes = data.draw(
            st.integers(min_value=1, max_value=100 * units.MiB), label=f"b{index}"
        )
        delay = data.draw(st.floats(min_value=0, max_value=2.0), label=f"d{index}")
        total += nbytes
        sim.process(flow_proc(src, dst, nbytes, delay))
    sim.run()
    assert switch.total_bytes == total
    assert len(completions) == num_flows
    assert len(switch._flows) == 0
    # Endpoint accounting is conserved too.
    sent = sum(nic.stats.bytes_sent for nic in nics)
    received = sum(nic.stats.bytes_received for nic in nics)
    assert sent == received == total


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_network_never_exceeds_port_capacity(data):
    """A single receiver's aggregate throughput cannot beat its line rate."""
    sim = Simulator()
    switch = Switch(sim)
    rate = units.gbps(1)
    sink = switch.attach(Nic("sink", rate))
    sources = [switch.attach(Nic(f"s{i}", units.gbps(10))) for i in range(4)]
    total = 0

    def flow_proc(src, nbytes):
        yield switch.transfer(src, sink, nbytes)

    for index, src in enumerate(sources):
        nbytes = data.draw(
            st.integers(min_value=units.MiB, max_value=50 * units.MiB),
            label=f"b{index}",
        )
        total += nbytes
        sim.process(flow_proc(src, nbytes))
    duration = sim.run()
    # Aggregate delivery cannot be faster than the sink's line rate.
    assert duration >= total / rate * 0.999


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_disk_busy_time_accounts_for_all_io(data):
    """Busy seconds equal the sum of per-I/O durations, and serialized
    I/O means the clock ends at or after the busy total."""
    sim = Simulator()
    disk = Disk(sim, DiskGeometry(), name="d")
    durations = []

    def one_io(kind, offset, nbytes):
        if kind == "read":
            took = yield from disk.read(offset, nbytes)
        else:
            took = yield from disk.write(offset, nbytes)
        durations.append(took)

    count = data.draw(st.integers(min_value=1, max_value=12), label="count")
    for index in range(count):
        kind = data.draw(st.sampled_from(["read", "write"]), label=f"k{index}")
        offset = data.draw(
            st.integers(min_value=0, max_value=units.TB), label=f"o{index}"
        )
        nbytes = data.draw(
            st.integers(min_value=1, max_value=64 * units.MiB), label=f"n{index}"
        )
        sim.process(one_io(kind, offset, nbytes))
    sim.run()
    assert disk.stats.busy_seconds == pytest.approx(sum(durations))
    assert sim.now == pytest.approx(disk.stats.busy_seconds)
    assert disk.stats.ios == count


@settings(max_examples=20, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=6),
    disks=st.integers(min_value=1, max_value=3),
)
def test_cluster_builder_shape(num_nodes, disks):
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=num_nodes, disks_per_node=disks))
    assert len(cluster.nodes) == num_nodes
    assert len(cluster.all_disks()) == num_nodes * disks
    names = {node.name for node in cluster.nodes}
    assert len(names) == num_nodes
