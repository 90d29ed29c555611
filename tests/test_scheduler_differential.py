"""Differential tests: the bucket-and-heap scheduler vs one binary heap.

:mod:`repro.sim.engine` keeps zero-delay entries in a FIFO now-bucket
and everything timed in a heap, and merges the two at equal instants by
sequence number.  That merge is a pure routing optimization -- dispatch
must follow the exact global ``(time, seq)`` order of a single heap.
The oracle is :class:`tests.oracles.HeapSimulator`: a subclass whose
now-bucket heap-pushes, so every entry, zero-delay ones included, sits
on its one heap and the merge never runs.  These tests run the identical
workload on both and require the full dispatch logs to match bitwise,
under hypothesis-randomized mixes of constant-delay chains, zero delays
(bucket entries racing heap entries due at the same instant),
out-of-order deadlines, interrupts and all-of joins, plus a real DFSIO
write.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import ProcessInterrupt, Simulator
from tests.oracles import HeapSimulator


# Delay menu: repeated values make entries due at one instant, 0.0 the
# now-bucket, and the spread (a large delay followed by a small one from
# another process) out-of-order deadlines.  Exact binary floats so
# equality comparisons across schedulers are bitwise-trivial.
_DELAYS = (0.0, 0.125, 0.25, 1.0, 1.0, 2.5, 7.0)

_worker_plans = st.lists(
    st.lists(st.sampled_from(sorted(set(_DELAYS))), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
)

#: (delay, victim index) pairs for the interrupting process.
_interrupt_plans = st.lists(
    st.tuples(st.sampled_from((0.125, 0.5, 1.0, 3.0)), st.integers(0, 5)),
    max_size=4,
)

_join_plan = st.sampled_from(("none", "all"))

Log = List[Tuple[Any, ...]]


def _run_workload(sim_class, workers, interrupts, join):
    """Execute one randomized plan; return the full dispatch log.

    The log records every observable resume: (tag, worker id, step,
    sim.now).  Appends happen inside process bodies, so two schedulers
    produce equal logs only if they dispatched every entry in the same
    order at the same simulated times.
    """
    sim = sim_class()
    log: Log = []
    procs = []

    def worker(wid, delays):
        for step, delay in enumerate(delays):
            try:
                yield sim.timeout(delay)
                log.append(("tick", wid, step, sim.now))
            except ProcessInterrupt:
                log.append(("interrupted", wid, step, sim.now))
        return wid

    def chaos(plan):
        for delay, victim in plan:
            yield sim.timeout(delay)
            target = procs[victim % len(procs)]
            log.append(("interrupt", victim % len(procs), not target.triggered, sim.now))
            target.interrupt("chaos")

    def joiner():
        value = yield sim.all_of(procs)
        log.append(("joined", join, repr(value), sim.now))

    for wid, delays in enumerate(workers):
        procs.append(sim.process(worker(wid, delays)))
    if interrupts:
        sim.process(chaos(interrupts))
    if join != "none":
        sim.process(joiner())
    sim.run()
    log.append(("end", sim.now, sim._seq))
    assert not sim._heap
    return log


@settings(max_examples=120, deadline=None)
@given(workers=_worker_plans, interrupts=_interrupt_plans, join=_join_plan)
def test_calendar_matches_heap_reference(workers, interrupts, join):
    calendar = _run_workload(Simulator, workers, interrupts, join)
    heap = _run_workload(HeapSimulator, workers, interrupts, join)
    assert calendar == heap


def test_overflow_heap_path_matches_reference():
    """A hand-built worst case: deadlines arrive strictly out of order,
    and at t=1 a zero delay lands in the bucket while an older heap
    entry is due at the same instant."""
    workers = [[7.0, 0.125], [2.5, 0.125], [1.0, 0.0], [0.125, 7.0], [1.0, 0.0]]
    calendar = _run_workload(Simulator, workers, [], "all")
    heap = _run_workload(HeapSimulator, workers, [], "all")
    assert calendar == heap


def test_oracle_is_a_true_heap():
    """Every oracle entry, zero-delay ones included, sits on its heap.

    Guards the differential suite against comparing the scheduler with
    itself: the oracle's now-bucket stays empty, so the production merge
    of bucket and heap never runs on its side.
    """
    delays = (1.0, 0.0, 3.0, 0.5, 0.0)
    oracle = HeapSimulator()
    for delay in delays:
        oracle.timeout(delay)
    oracle.process(step for step in ())
    oracle.event().succeed()
    assert not oracle._now_bucket
    assert sorted(when for when, _seq, _ev in oracle._heap) == [
        0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 3.0,
    ]


def test_drain_refuses_to_run_time_backwards():
    """A mis-routed entry (deadline behind the clock) fails loudly
    instead of dispatching out of order."""
    sim = Simulator()
    sim.timeout(3.0)
    sim.run()
    sim._heap.append((0.5, sim._seq + 1, sim.event()))
    with pytest.raises(SimulationError, match="time went backwards"):
        sim.run()


def test_experiment_fingerprint_invariant_under_scheduler(monkeypatch):
    """A real multi-layer workload agrees across schedulers end to end.

    The DFSIO write drives clients, datanodes, journal, Lstor, disks and
    the switch; its runtime is a function of every dispatch the run
    made, so equality here is an end-to-end order check on top of the
    synthetic workloads above.
    """
    from repro.core import cluster
    from repro.experiments.common import Scale, build_raidp
    from repro.workloads.dfsio import dfsio_write

    runtimes = {}
    for sim_class in (Simulator, HeapSimulator):
        monkeypatch.setattr(cluster, "Simulator", sim_class)
        dfs = build_raidp(Scale(), seed=1)
        assert type(dfs.sim) is sim_class
        runtimes[sim_class] = dfsio_write(dfs, 64 * 1024 * 1024).runtime
        assert not dfs.sim._heap
    assert runtimes[Simulator] == runtimes[HeapSimulator]
