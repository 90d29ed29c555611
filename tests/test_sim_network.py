"""Unit tests for the max-min fair-share network model."""

import pytest

from repro import units
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.network import Nic, Switch
from tests.oracles import node_traffic


def build(sim, rates):
    switch = Switch(sim)
    nics = [switch.attach(Nic(f"n{i}", rate)) for i, rate in enumerate(rates)]
    return switch, nics


def test_single_flow_runs_at_line_rate():
    sim = Simulator()
    rate = units.gbps(10)
    switch, (a, b) = build(sim, [rate, rate])

    def body():
        duration = yield switch.transfer(a, b, int(rate))  # 1 second of bytes
        return duration

    duration = sim.run_process(body())
    assert duration == pytest.approx(1.0, rel=0.01)
    assert a.stats.bytes_sent == int(rate)
    assert b.stats.bytes_received == int(rate)


def test_flow_limited_by_slower_endpoint():
    sim = Simulator()
    fast = units.gbps(10)
    slow = units.gbps(1)
    switch, (a, b) = build(sim, [fast, slow])

    def body():
        duration = yield switch.transfer(a, b, int(slow))  # 1s at the slow rate
        return duration

    duration = sim.run_process(body())
    assert duration == pytest.approx(1.0, rel=0.01)


def test_two_flows_share_receiver_fairly():
    sim = Simulator()
    rate = units.gbps(10)
    switch, (a, b, c) = build(sim, [rate, rate, rate])
    done_times = []

    def body(src):
        yield switch.transfer(src, c, int(rate))
        done_times.append(sim.now)

    sim.process(body(a))
    sim.process(body(b))
    sim.run()
    # Both flows share c's 10G receive port: each gets 5G, so 2s each.
    assert done_times[0] == pytest.approx(2.0, rel=0.01)
    assert done_times[1] == pytest.approx(2.0, rel=0.01)


def test_departing_flow_releases_bandwidth():
    sim = Simulator()
    rate = units.gbps(10)
    switch, (a, b, c) = build(sim, [rate, rate, rate])
    done_times = {}

    def small(src):
        yield switch.transfer(src, c, int(rate / 2))  # 0.5s at line rate
        done_times["small"] = sim.now

    def big(src):
        yield switch.transfer(src, c, int(rate))
        done_times["big"] = sim.now

    sim.process(small(a))
    sim.process(big(b))
    sim.run()
    # Shared at 5G each until the small flow finishes at t=1.0 (0.625GB at
    # 5Gbps takes 1s), then the big flow gets the full 10G.
    assert done_times["small"] == pytest.approx(1.0, rel=0.02)
    # Big flow: 1.0s at 5G moves half its bytes, remaining half at 10G
    # takes 0.5s => ~1.5s total.
    assert done_times["big"] == pytest.approx(1.5, rel=0.02)


def test_disjoint_flows_do_not_interfere():
    sim = Simulator()
    rate = units.gbps(10)
    switch, (a, b, c, d) = build(sim, [rate] * 4)
    done_times = []

    def body(src, dst):
        yield switch.transfer(src, dst, int(rate))
        done_times.append(sim.now)

    sim.process(body(a, b))
    sim.process(body(c, d))
    sim.run()
    assert done_times[0] == pytest.approx(1.0, rel=0.01)
    assert done_times[1] == pytest.approx(1.0, rel=0.01)


def test_incast_fifteen_senders_one_receiver():
    """Table 2's recovery pattern: N senders converge on one node."""
    sim = Simulator()
    rate = units.gbps(10)
    switch, nics = build(sim, [rate] * 16)
    receiver = nics[0]
    chunk = int(rate / 15)  # 1s aggregate at the receiver

    def body(src):
        yield switch.transfer(src, receiver, chunk)

    for src in nics[1:]:
        sim.process(body(src))
    sim.run()
    assert sim.now == pytest.approx(1.0, rel=0.02)


def test_zero_byte_transfer_rejected():
    sim = Simulator()
    switch, (a, b) = build(sim, [units.gbps(10)] * 2)
    with pytest.raises(ValueError):
        switch.transfer(a, b, 0)


def test_negative_transfer_rejected():
    sim = Simulator()
    switch, (a, b) = build(sim, [units.gbps(10)] * 2)
    with pytest.raises(ValueError):
        switch.transfer(a, b, -1)


def test_duplicate_nic_attach_rejected():
    sim = Simulator()
    switch = Switch(sim)
    switch.attach(Nic("n0", units.gbps(10)))
    with pytest.raises(SimulationError):
        switch.attach(Nic("n0", units.gbps(10)))


def test_total_bytes_accumulates():
    sim = Simulator()
    rate = units.gbps(10)
    switch, (a, b) = build(sim, [rate, rate])

    def body():
        yield switch.transfer(a, b, 1000)
        yield switch.transfer(b, a, 2000)

    sim.run_process(body())
    assert switch.total_bytes == 3000
    traffic = node_traffic(switch)
    assert traffic["n0"].bytes_sent == 1000
    assert traffic["n0"].bytes_received == 2000


def test_many_concurrent_flows_conserve_bytes():
    sim = Simulator()
    rate = units.gbps(10)
    switch, nics = build(sim, [rate] * 8)
    total = 0

    def body(src, dst, nbytes):
        yield switch.transfer(src, dst, nbytes)

    for i in range(24):
        src = nics[i % 8]
        dst = nics[(i * 3 + 1) % 8]
        if src is dst:
            dst = nics[(i * 3 + 2) % 8]
        nbytes = (i + 1) * 10 * units.MiB
        total += nbytes
        sim.process(body(src, dst, nbytes))
    sim.run()
    assert switch.total_bytes == total
    assert len(switch._flows) == 0
