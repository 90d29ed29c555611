"""Differential tests: incremental fair-share solver vs the reference.

The incremental allocator (per-port registries, dirty-component re-solve,
same-instant arrival batching, solve fast paths, lazy completion heap)
must allocate the same max-min rates as a rebuild-the-world reference on
any sequence of flow arrivals, departures, and NIC-rate changes.  The
reference is :class:`tests.oracles.ReferenceSwitch`, a test-side subclass.  These
tests drive both through identical randomized histories and compare
rates at every step, plus the degenerate topologies, the accounting
bugfixes and the churn event budget.

Heap-driven filling is additionally held *bitwise* to the
scan-every-port loop it replaced (:class:`tests.oracles.ScanFillSwitch`)
on large all-ties components and on churning reconstruction stars, and
to a work budget linear in the size of what each solve touches.  The
same histories (and one where a disk dies under a stream body) hold a
departure's resumed solve to a full re-solve from round 0
(:class:`tests.oracles.FullSolveSwitch`) with ``==``.
"""

import random

import pytest

from repro import units
from repro.sim.disk import Disk, DiskRun
from repro.sim.engine import Simulator
from repro.sim.network import Nic, Stage, Switch
from tests.oracles import FullSolveSwitch, ReferenceSwitch, ScanFillSwitch, flow_rates

GBPS = units.gbps(1)


SOLVERS = {"incremental": Switch, "full": FullSolveSwitch, "reference": ReferenceSwitch}


def _build(solver, rates):
    sim = Simulator()
    switch = SOLVERS[solver](sim)
    nics = [switch.attach(Nic(f"n{i}", rate)) for i, rate in enumerate(rates)]
    return sim, switch, nics


def _random_script(rng, num_nics, num_ops):
    """A reproducible history: (time, op, args) tuples in time order."""
    script = []
    now = 0.0
    for _ in range(num_ops):
        now += rng.uniform(0.0, 0.4)
        kind = rng.random()
        if kind < 0.75:
            src = rng.randrange(num_nics)
            dst = rng.randrange(num_nics - 1)
            if dst >= src:
                dst += 1
            nbytes = rng.randrange(1, 4 * units.GiB)
            script.append((now, "transfer", (src, dst, nbytes)))
        else:
            nic = rng.randrange(num_nics)
            factor = rng.choice([0.1, 0.5, 2.0, 1.0])
            script.append((now, "rates", (nic, factor)))
    return script


def _replay(solver, rates, script):
    """Run a script against one switch, snapshotting rates at every op."""
    sim, switch, nics = _build(solver, rates)
    base = [(nic.tx_rate, nic.rx_rate) for nic in nics]
    snapshots = []

    def driver():
        for at, op, args in script:
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            if op == "transfer":
                src, dst, nbytes = args
                switch.transfer(nics[src], nics[dst], nbytes)
            else:
                index, factor = args
                switch.set_nic_rates(
                    nics[index],
                    tx_rate=base[index][0] * factor,
                    rx_rate=base[index][1] * factor,
                )
            snapshots.append((sim.now, flow_rates(switch)))

    sim.process(driver())
    sim.run()
    stats = [
        (n.stats.bytes_sent, n.stats.bytes_received, n.stats.flows_started, n.stats.flows_finished)
        for n in nics
    ]
    return snapshots, stats, sim.now, (switch.solves, switch.deadline_pushes, sim._seq)


@pytest.mark.parametrize("seed", range(8))
def test_randomized_differential_incremental_vs_reference(seed):
    """Seed 0 is the history that tells loads restored as deltas from
    loads restored as absolute values (which still count departed
    flows) when a departure resumes a solve."""
    rng = random.Random(seed)
    num_nics = rng.randrange(3, 9)
    rates = [rng.choice([GBPS, 2 * GBPS, 10 * GBPS]) for _ in range(num_nics)]
    script = _random_script(rng, num_nics, num_ops=40)

    incremental = _replay("incremental", rates, script)
    # Resuming solves moves no rate, byte, instant, solve, push or event.
    assert _replay("full", rates, script) == incremental
    inc_snaps, inc_stats, inc_end, _work = incremental
    ref_snaps, ref_stats, ref_end, _work = _replay("reference", rates, script)

    assert len(inc_snaps) == len(ref_snaps)
    for (t_inc, flows_inc), (t_ref, flows_ref) in zip(inc_snaps, ref_snaps):
        assert t_inc == pytest.approx(t_ref, rel=1e-9)
        assert len(flows_inc) == len(flows_ref)
        for (src_i, dst_i, rem_i, rate_i), (src_r, dst_r, rem_r, rate_r) in zip(
            flows_inc, flows_ref
        ):
            assert (src_i, dst_i) == (src_r, dst_r)
            assert rate_i == pytest.approx(rate_r, rel=1e-9)
            assert rem_i == pytest.approx(rem_r, rel=1e-9, abs=1e-2)
    # Byte accounting is integral and must agree exactly; completion of
    # the whole history must land at (numerically) the same instant.
    assert inc_stats == ref_stats
    assert inc_end == pytest.approx(ref_end, rel=1e-9)


def test_degenerate_topology_all_flows_one_port():
    """N senders converge on a single receive port: one shared bottleneck."""
    n = 12
    rate = units.gbps(10)
    for solver in ("incremental", "reference"):
        sim, switch, nics = _build(solver, [rate] * (n + 1))
        sink = nics[0]

        def body(src):
            yield switch.transfer(src, sink, int(rate))

        for src in nics[1:]:
            sim.process(body(src))
        # After startup, every flow gets exactly 1/N of the receive port.
        sim.run(until=0.001)
        rows = flow_rates(switch)
        assert len(rows) == n
        for _src, _dst, _rem, flow_rate in rows:
            assert flow_rate == pytest.approx(rate / n, rel=1e-9)
        sim.run()
        assert len(switch._flows) == 0
        assert sink.stats.bytes_received == n * int(rate)


def test_degenerate_topology_one_sender_fan_out():
    """One transmit port fans out to N receivers: tx is the bottleneck."""
    n = 8
    rate = units.gbps(10)
    sim, switch, nics = _build("incremental", [rate] * (n + 1))
    source = nics[0]

    def body(dst):
        yield switch.transfer(source, dst, int(rate))

    for dst in nics[1:]:
        sim.process(body(dst))
    sim.run(until=0.001)
    for _src, _dst, _rem, flow_rate in flow_rates(switch):
        assert flow_rate == pytest.approx(rate / n, rel=1e-9)
    sim.run()
    assert source.stats.bytes_sent == n * int(rate)


def test_single_flow_fast_path_runs_at_slower_endpoint():
    sim, switch, (a, b) = _build("incremental", [units.gbps(10), units.gbps(1)])

    def body():
        duration = yield switch.transfer(a, b, int(units.gbps(1)))
        return duration

    proc = sim.process(body())
    sim.run(until=0.001)
    ((_s, _d, _rem, rate),) = flow_rates(switch)
    assert rate == pytest.approx(units.gbps(1))  # min(tx, rx), one round
    sim.run()
    assert proc.value == pytest.approx(1.0, rel=0.01)


def test_disjoint_components_solved_independently():
    """An arrival in one component leaves the other's rates untouched."""
    rate = units.gbps(10)
    sim, switch, nics = _build("incremental", [rate] * 6)

    def body(src, dst, nbytes):
        yield switch.transfer(src, dst, nbytes)

    # Component A: n0 -> n1.  Component B: n2 -> n3, joined later by
    # n4 -> n3 (shares n3's receive port).
    sim.process(body(nics[0], nics[1], int(rate)))
    sim.process(body(nics[2], nics[3], int(rate)))

    def late_arrival():
        yield sim.timeout(0.25)
        switch.transfer(nics[4], nics[3], int(rate))
        rows = {(src, dst): r for src, dst, _rem, r in flow_rates(switch)}
        # Component A still runs at line rate; component B split in half.
        assert rows[("n0", "n1")] == pytest.approx(rate, rel=1e-9)
        assert rows[("n2", "n3")] == pytest.approx(rate / 2, rel=1e-9)
        assert rows[("n4", "n3")] == pytest.approx(rate / 2, rel=1e-9)

    sim.process(late_arrival())
    sim.run()
    assert len(switch._flows) == 0


def test_zero_byte_transfer_closes_accounting():
    """A zero-byte flow is refused before it opens: the started/finished
    pair stays closed at zero and no bytes are banked."""
    sim, switch, (a, b) = _build("incremental", [units.gbps(10)] * 2)
    with pytest.raises(ValueError):
        switch.transfer(a, b, 0)
    sim.run()
    assert a.stats.flows_started == 0
    assert a.stats.flows_finished == 0
    assert a.stats.bytes_sent == 0
    assert b.stats.bytes_received == 0
    assert switch.total_bytes == 0


def test_nic_degradation_differential():
    """Mid-flight rate changes: both solvers bank and re-solve alike."""
    rate = units.gbps(10)
    ends = {}
    for solver in ("incremental", "reference"):
        sim, switch, (a, b, c) = _build(solver, [rate] * 3)

        def body(src, dst, nbytes):
            yield switch.transfer(src, dst, nbytes)

        def chaos():
            yield sim.timeout(0.25)
            switch.set_nic_rates(c, rx_rate=rate / 10)
            yield sim.timeout(0.5)
            switch.set_nic_rates(c, rx_rate=rate)

        sim.process(body(a, c, int(rate)))
        sim.process(body(b, c, int(rate)))
        sim.process(chaos())
        sim.run()
        ends[solver] = sim.now
    assert ends["incremental"] == pytest.approx(ends["reference"], rel=1e-9)


def test_idle_rate_change_is_a_no_op():
    """Changing rates on a NIC with no flows must not disturb anything."""
    sim, switch, (a, b, c) = _build("incremental", [units.gbps(10)] * 3)

    def body():
        yield switch.transfer(a, b, 10 * units.MiB)

    def tweak():
        yield sim.timeout(0.001)
        switch.set_nic_rates(c, tx_rate=units.gbps(1))

    sim.process(body())
    sim.process(tweak())
    sim.run()
    assert len(switch._flows) == 0
    assert a.stats.flows_finished == 1


def test_network_churn_event_budget():
    """Work-counter guard: a 512-flow churn stays within an event budget.

    The lazy completion heap must keep the engine event count
    proportional to arrivals/departures -- a handful of events per flow
    (arrival stagger, completion timer, delivery, done) plus re-arms --
    never proportional to flows^2.  The budget of 16 events/flow is ~2x
    the observed cost, so it trips on any return to per-event timer
    rebuilds.  A deterministic LCG picks endpoints and sizes.
    """
    num_nics, num_flows = 64, 512
    sim, switch, nics = _build("incremental", [units.gbps(10)] * num_nics)

    def feeder():
        state = 0x2545F4914F6CDD1D
        for _ in range(num_flows):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            src = nics[state % num_nics]
            dst = nics[(state >> 8) % num_nics]
            if dst is src:
                dst = nics[(state % num_nics + 1) % num_nics]
            switch.transfer(src, dst, 4 * units.MiB + (state >> 16) % (16 * units.MiB))
            yield sim.timeout(0.0005)

    sim.process(feeder())
    sim.run()
    assert len(switch._flows) == 0
    assert sim._seq <= 16 * num_flows + 64, (
        f"{sim._seq} engine events for {num_flows} flows: "
        "event count is no longer proportional to arrivals/departures"
    )


def test_timer_counters_tell_idle_fires_from_working_ones():
    """A deadline an arrival moved later still fires: counted as idle."""
    rate = units.gbps(10)
    sim, switch, (a, b, c) = _build("incremental", [rate] * 3)

    def late():
        yield sim.timeout(0.25)
        switch.transfer(b, c, int(rate))

    switch.transfer(a, c, int(rate))  # alone: due at t=1
    sim.process(late())  # halves its rate at t=0.25: now due at t=1.75
    sim.run()
    # The t=1 timer finds nothing due and re-arms; t=1.75 retires the
    # first flow, t=2 the second.
    assert (switch.timer_fires, switch.timer_idle_fires) == (3, 1)
    # Three solves (arrival, arrival, departure); each flow is rated on
    # arrival and re-rated once.
    assert (switch.solves, switch.deadline_pushes) == (3, 4)


# ----------------------------------------------------------------------
# Heap-driven filling vs the scan loop: bit-for-bit, and within budget.
# ----------------------------------------------------------------------
def _pipeline_script(rng, num_nics, num_ops):
    """Replication-pipeline bursts on equal-rate NICs, plus rate changes.

    Equal rates and a handful of sizes make nearly every offer a tie, so
    only the first-seen tie-break reproduces the bottleneck order; the
    opening burst (one pipeline per NIC at t=0) is one big component.
    """
    sizes = [4 * units.MiB, 8 * units.MiB, 8 * units.MiB + 4096]

    def pipeline(at, head):
        hops = [head] + rng.sample([i for i in range(num_nics) if i != head], 3)
        return (at, "pipeline", (hops, rng.choice(sizes)))

    script = [pipeline(0.0, head) for head in range(num_nics)]
    now = 0.0
    for _ in range(num_ops):
        now += rng.choice([0.0, 0.0, 0.001, rng.uniform(0.0, 0.01)])
        if rng.random() < 0.8:
            script.append(pipeline(now, rng.randrange(num_nics)))
        else:
            script.append(
                (now, "rates", (rng.randrange(num_nics), rng.choice([0.1, 0.5, 1.0, 2.0])))
            )
    return script


def _replay_pipelines(switch_cls, num_nics, script):
    sim = Simulator()
    switch = switch_cls(sim)
    rate = units.gbps(10)
    nics = [switch.attach(Nic(f"n{i}", rate)) for i in range(num_nics)]
    snapshots, completions = [], []
    started = 0

    def driver():
        nonlocal started
        for step, (at, op, args) in enumerate(script):
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            if op == "pipeline":
                hops, nbytes = args
                for src, dst in zip(hops, hops[1:]):
                    done = switch.transfer(nics[src], nics[dst], nbytes)
                    done.add_callback(
                        lambda ev, flow=started: completions.append(
                            (flow, sim.now, ev.value)
                        )
                    )
                    started += 1
            else:
                index, factor = args
                switch.set_nic_rates(
                    nics[index], tx_rate=rate * factor, rx_rate=rate * factor
                )
            # Once per instant, so same-instant arrivals stay one batch.
            if step + 1 == len(script) or script[step + 1][0] > at:
                snapshots.append((sim.now, flow_rates(switch)))

    sim.process(driver())
    sim.run()
    assert len(switch._flows) == 0
    return (
        snapshots, completions, switch.solves, switch._push_seq, sim.now, sim._seq,
    ), switch.fill_steps


@pytest.mark.parametrize("num_nics,seed", [(64, 0), (64, 1), (128, 2), (256, 3)])
def test_heap_filling_is_bitwise_the_scan_loop(num_nics, seed):
    script = _pipeline_script(random.Random(seed), num_nics, num_ops=120)
    heap, heap_steps = _replay_pipelines(Switch, num_nics, script)
    full, full_steps = _replay_pipelines(FullSolveSwitch, num_nics, script)
    scan, _steps = _replay_pipelines(ScanFillSwitch, num_nics, script)
    # ``==`` throughout: rates and remaining bytes at every step, the
    # completion order with times and durations, the solves, the number
    # of deadline pushes (one per _set_rate that changed a rate), the
    # end instant and the engine's event count.
    for (t_heap, rows_heap), (t_scan, rows_scan) in zip(heap[0], scan[0]):
        assert t_heap == t_scan
        assert rows_heap == rows_scan
    assert heap == scan
    # Resumed departures: the same everything, for fewer filling steps.
    assert heap == full
    assert heap_steps < full_steps


# ----------------------------------------------------------------------
# Reconstruction stars: the oracles under membership churn.
# ----------------------------------------------------------------------
_STAR_RATE = units.gbps(10)
#: Spoke capacities per scenario.  ``hub``: every spoke outruns the hub's
#: share (the reconstruction shape).  ``spoke``: slow spokes bottleneck
#: first.  ``tied``: with three flows up the hub's share *equals* a
#: spoke's capacity, and (C - C/3) / 2 != C/3 in binary64, so whoever
#: treats the tie as dominance rates two flows one ulp high.  ``mixed``:
#: all of it at once.
_STAR_SPOKE_RATES = {
    "hub": [_STAR_RATE],
    "spoke": [_STAR_RATE / 100, _STAR_RATE / 64, _STAR_RATE / 7],
    "tied": [_STAR_RATE / 3],
    "mixed": [_STAR_RATE, _STAR_RATE / 2, _STAR_RATE / 3, _STAR_RATE / 10],
}


def _star_script(rng, num_spokes, mode, num_ops):
    """Staggered reconstruction-style churn on one hub.

    ``burst`` starts equal-size flows on several spokes at one instant in
    shuffled spoke order (lock-step finishes, exact deadline ties whose
    completion order is the deadline-push order); ``chain`` starts a
    puller that opens its next chunk from the completion callback of the
    last (membership changes twice per chunk); ``rates`` rescales the hub
    or a spoke mid-flight.  The replay skips spokes that are still busy,
    so the shape stays a star -- except for the odd ``double``, which
    lands two flows on one spoke and breaks it for a while.
    """
    # A 15-wide burst drains in ~3 ms, the pace of the ops below.
    chunk = units.MiB // 4
    sizes = [chunk, chunk, 2 * chunk, chunk + 4096]
    spokes = list(range(1, num_spokes + 1))
    width = min(num_spokes, 3 if mode == "tied" else 15)
    script = [(0.0, "burst", (rng.sample(spokes, width), sizes[0]))]
    now = 0.0
    for _ in range(num_ops):
        now += rng.choice([0.0, 0.0005, 0.003, rng.uniform(0.0, 0.01)])
        kind = rng.random()
        if kind < 0.35:
            group = rng.sample(spokes, rng.randrange(1, width + 1))
            script.append((now, "burst", (group, rng.choice(sizes))))
        elif kind < 0.7:
            script.append(
                (now, "chain", (rng.choice(spokes), rng.choice(sizes), rng.randrange(2, 6)))
            )
        elif kind < 0.95:
            target = rng.choice([0, 0] + spokes)
            script.append((now, "rates", (target, rng.choice([0.25, 0.5, 1.0, 2.0]))))
        else:
            script.append((now, "double", (rng.choice(spokes), rng.choice(sizes))))
    return script


def _replay_star(switch_cls, num_spokes, mode, hub_receives, seed, script):
    rng = random.Random(seed)
    sim = Simulator()
    switch = switch_cls(sim)
    rates = [_STAR_RATE] + [
        rng.choice(_STAR_SPOKE_RATES[mode]) for _ in range(num_spokes)
    ]
    nics = [switch.attach(Nic(f"n{i}", rate)) for i, rate in enumerate(rates)]
    snapshots, completions = [], []
    started = 0
    busy = [0] * len(nics)

    def start(spoke, nbytes, chunks_left=0):
        nonlocal started
        flow, started = started, started + 1
        busy[spoke] += 1
        ends = (nics[spoke], nics[0]) if hub_receives else (nics[0], nics[spoke])
        done = switch.transfer(*ends, nbytes)

        def on_done(event):
            completions.append((flow, sim.now, event.value))
            busy[spoke] -= 1
            if chunks_left:
                start(spoke, nbytes, chunks_left - 1)

        done.add_callback(on_done)

    def driver():
        for step, (at, op, args) in enumerate(script):
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            if op == "burst":
                group, nbytes = args
                for spoke in group:
                    if not busy[spoke]:
                        start(spoke, nbytes)
            elif op == "chain":
                if not busy[args[0]]:
                    start(*args)
            elif op == "double":
                start(*args)
                start(*args)
            else:
                index, factor = args
                switch.set_nic_rates(
                    nics[index], tx_rate=rates[index] * factor, rx_rate=rates[index] * factor
                )
            if step + 1 == len(script) or script[step + 1][0] > at:
                snapshots.append((sim.now, flow_rates(switch)))

    sim.process(driver())
    sim.run()
    assert len(switch._flows) == 0
    return {
        "snapshots": snapshots,
        "completions": completions,
        "pushes": switch._push_seq,
        "solves": switch.solves,
        "fill_steps": switch.fill_steps,
        "end": sim.now,
        "seq": sim._seq,
    }


@pytest.mark.parametrize("hub_receives", [True, False], ids=["rx-hub", "tx-hub"])
@pytest.mark.parametrize(
    "num_spokes,mode,seed",
    [
        (2, "hub", 0),
        (3, "tied", 1),
        (5, "tied", 2),
        (15, "hub", 3),
        (15, "spoke", 4),
        (15, "mixed", 5),
        (64, "hub", 6),
        (64, "mixed", 7),
    ],
)
def test_star_churn_agrees_with_the_oracles(num_spokes, mode, seed, hub_receives):
    script = _star_script(random.Random(seed), num_spokes, mode, num_ops=80)
    heap, full, scan, reference = (
        _replay_star(cls, num_spokes, mode, hub_receives, seed, script)
        for cls in (Switch, FullSolveSwitch, ScanFillSwitch, ReferenceSwitch)
    )
    # Full re-solves: ``==`` on everything, for no fewer filling steps.
    assert heap["fill_steps"] <= full["fill_steps"]
    del full["fill_steps"]
    # The scan loop: ``==`` throughout -- rates and remaining bytes at
    # every step, then completion order with times and durations,
    # deadline pushes, solve count, the end instant and the engine's
    # event count -- on everything but its own (larger) step count on
    # multi-round solves.
    for (t_heap, rows_heap), (t_scan, rows_scan) in zip(
        heap["snapshots"], scan["snapshots"]
    ):
        assert t_heap == t_scan
        assert rows_heap == rows_scan
    del heap["fill_steps"], scan["fill_steps"]
    assert heap == scan
    assert heap == full
    # The brute-force reference solves more often and may round a tie
    # the other way: the same rates and completions, to a relative 1e-9.
    assert len(reference["snapshots"]) == len(heap["snapshots"])
    for (t_heap, rows_heap), (t_ref, rows_ref) in zip(
        heap["snapshots"], reference["snapshots"]
    ):
        assert t_ref == pytest.approx(t_heap, rel=1e-9)
        assert [row[:2] for row in rows_ref] == [row[:2] for row in rows_heap]
        for row_heap, row_ref in zip(rows_heap, rows_ref):
            assert row_ref[2] == pytest.approx(row_heap[2], rel=1e-9, abs=1e-2)
            assert row_ref[3] == pytest.approx(row_heap[3], rel=1e-9)
    assert reference["end"] == pytest.approx(heap["end"], rel=1e-9)


@pytest.mark.parametrize("op", ["rates", "arrival"])
def test_star_arm_when_a_flow_finishes_inside_the_update(op):
    """A flow can cross its threshold in ``_update``'s own bank, not the
    timer's: something re-solves at its exact deadline, ahead of the
    timer entry.  The survivors' share and the spokes that bound it must
    then be the survivors' alone -- here the departing flow sat on the
    slowest spoke, and the lone survivor must not inherit its rate."""
    slow = _STAR_RATE / 10
    size = units.MiB

    def replay(switch_cls):
        sim = Simulator()
        switch = switch_cls(sim)
        hub, crawler, sprinter, late = (
            switch.attach(Nic(name, rate))
            for name, rate in [
                ("hub", _STAR_RATE), ("crawler", slow),
                ("sprinter", _STAR_RATE), ("late", _STAR_RATE),
            ]
        )
        seen = []

        def driver():
            switch.transfer(crawler, hub, size)  # spoke-bound: due at size / slow
            switch.transfer(sprinter, hub, 100 * size)
            # Scheduled before the flush arms the timer, so at the tie
            # this process runs first.
            yield sim.timeout(size / slow)
            if op == "rates":
                switch.set_nic_rates(hub, rx_rate=_STAR_RATE / 2)
            else:
                switch.transfer(late, hub, size)
            seen.append((sim.now, flow_rates(switch)))

        sim.process(driver())
        sim.run()
        return seen, switch._push_seq, switch.solves, sim.now, sim._seq

    heap = replay(Switch)
    assert heap == replay(ScanFillSwitch)
    ((_at, rows),) = heap[0]
    # The crawler is gone; the sprinter has the halved hub to itself, or
    # the whole hub shared with the newcomer.
    assert rows[0][0] == "sprinter" and rows[0][3] == _STAR_RATE / 2
    assert len(rows) == (1 if op == "rates" else 2)


class _SolveLedger:
    """Mixin recording (flows, ports, filling steps) of every solve."""

    def __init__(self, sim):
        super().__init__(sim)
        self.ledger = []

    def _solve(self, flows, now):
        solves, steps = self.solves, self.fill_steps
        super()._solve(flows, now)
        if self.solves != solves:
            ports = {p for f in flows for p in (f.src_port, f.dst_port)}
            self.ledger.append((len(flows), len(ports), self.fill_steps - steps))


def _replica_burst_ledger(base):
    """256 NICs each head a three-hop pipeline at t=0; run to drain."""
    num_nics = 256
    cls = type("Ledgered" + base.__name__, (_SolveLedger, base), {})
    rng = random.Random(13)
    sim = Simulator()
    switch = cls(sim)
    nics = [switch.attach(Nic(f"n{i}", units.gbps(10))) for i in range(num_nics)]
    for head in range(num_nics):
        hops = [head] + rng.sample([i for i in range(num_nics) if i != head], 3)
        for src, dst in zip(hops, hops[1:]):
            switch.transfer(nics[src], nics[dst], 8 * units.MiB)
    completions = [flow.done for flow in switch._flows]
    sim.run()
    assert len(switch._flows) == 0
    assert switch.solves == len(switch.ledger)
    assert switch.fill_steps == sum(steps for _f, _p, steps in switch.ledger)
    return switch.ledger, (
        [done.value for done in completions], switch._push_seq, sim.now, sim._seq,
    )


def test_filling_work_budget_is_linear_per_solve():
    """Work-counter guard: a solve costs what it touches, not rounds x ports.

    Heap filling evaluates one offer per port up front and at most one
    more per frozen flow, and rates each flow once: steps <= ports +
    2 * flows.  The budget 2 * (flows + ports) holds for every solve of
    a 768-flow replication burst and its drain; the scan loop -- an
    offer per racing port per round -- must overshoot it, or the budget
    is not measuring the thing this test is named for.

    A departure resumes the solve it left rather than filling from
    round 0: the drain's 117 solves take 155,423 steps as full
    re-solves (``FullSolveSwitch``) and what is pinned here resumed,
    with every completion, push and event equal.
    """
    ledger, outcome = _replica_burst_ledger(Switch)
    assert max(flows for flows, _p, _s in ledger) >= 700  # one big component
    for flows, ports, steps in ledger:
        assert steps <= 2 * (flows + ports), (flows, ports, steps)
    full, full_outcome = _replica_burst_ledger(FullSolveSwitch)
    assert full_outcome == outcome
    assert [row[:2] for row in full] == [row[:2] for row in ledger]
    assert len(ledger) == 117
    assert sum(s for *_r, s in full) == 155_423
    assert sum(s for *_r, s in ledger) == 6_962
    scan, _outcome = _replica_burst_ledger(ScanFillSwitch)
    assert [row[:2] for row in scan] == [row[:2] for row in ledger]
    assert any(steps > 2 * (flows + ports) for flows, ports, steps in scan)
    assert sum(s for *_r, s in scan) > 10 * sum(s for *_r, s in ledger)


# ----------------------------------------------------------------------
# A disk dies under a stream body between two departures.
# ----------------------------------------------------------------------
def _cut_history(switch_cls):
    """Bodies on a shared disk, a lone-run disk and a bounded stage,
    plus plain flows, into one hub.  A plain flow leaves, then the lone
    disk dies (``Switch._cut`` retires its body mid-run), then the rest
    drain; the stage is held once in between."""
    sim = Simulator()
    switch = switch_cls(sim)
    rate = units.gbps(10)
    hub = switch.attach(Nic("hub", rate))
    spokes = [switch.attach(Nic(f"s{i}", rate)) for i in range(7)]
    shared, lone = Disk(sim, name="shared"), Disk(sim, name="lone")
    stage = Stage("bus", 300 * units.MB)
    chunk = 4 * units.MiB
    outcomes, snapshots = [], []

    def watch(name, done):
        def record(event):
            failure = event._exception
            outcomes.append(
                (name, sim.now, type(failure).__name__ if failure else event.value)
            )

        done.add_callback(record)

    bodies = [
        ("near", switch.stream(spokes[0], hub, 40 * chunk, chunk, 0.0,
                               disk=DiskRun(shared, "read", 0))),
        ("far", switch.stream(spokes[1], hub, 30 * chunk, chunk, 0.0,
                              disk=DiskRun(shared, "read", units.TB))),
        ("cut", switch.stream(spokes[2], hub, 60 * chunk, chunk, 0.002,
                              disk=DiskRun(lone, "read", 0))),
        ("bus", switch.stream(spokes[3], hub, 20 * chunk, chunk, 0.001, shared=stage)),
    ]
    for name, body in bodies:
        watch(name, body.done)
    for index, nbytes in ((4, 8 * units.MiB), (5, 90 * units.MiB), (6, 200 * units.MiB)):
        watch(f"s{index}", switch.transfer(spokes[index], hub, nbytes))

    def driver():
        for at, act in (
            (0.05, lambda: None),
            (0.2, lambda: lone.fail()),
            (0.25, lambda: switch.hold_stage(stage, True)),
            (0.27, lambda: switch.hold_stage(stage, False)),
            (0.6, lambda: None),
        ):
            yield sim.timeout(at - sim.now)
            act()
            snapshots.append((sim.now, flow_rates(switch), list(outcomes)))

    sim.process(driver())
    sim.run()
    assert len(switch._flows) == 0
    bounds = [body.bound for _name, body in bodies]
    return (
        snapshots, outcomes, bounds, shared.stats.bytes_read, lone.stats.bytes_read,
        switch.solves, switch._push_seq, sim.now, sim._seq,
    ), switch.fill_steps


def test_a_cut_between_departures_resumes_like_a_full_solve():
    resumed, resumed_steps = _cut_history(Switch)
    full, full_steps = _cut_history(FullSolveSwitch)
    assert resumed == full
    # The cut lands between the first departure and the next.
    names = [name for name, _at, _value in resumed[1]]
    assert names.index("s4") < names.index("cut") < names.index("s5")
    assert ("cut", 0.2, "DiskFailedError") in resumed[1]
    assert resumed_steps < full_steps
