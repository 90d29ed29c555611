"""Unit tests for resources, locks, and byte-range locks."""

import pickle

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.disk import Disk
from repro.sim.engine import ProcessInterrupt, Simulator
from repro.sim.resources import ByteRangeLock, Lock, Resource


def test_resource_serializes_beyond_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    finish_times = []

    def body():
        grant = yield resource.request()
        yield sim.timeout(1.0)
        resource.release(grant)
        finish_times.append(sim.now)

    for _ in range(4):
        sim.process(body())
    sim.run()
    # Two run in [0,1], two wait and run in [1,2].
    assert finish_times == [1.0, 1.0, 2.0, 2.0]


def test_resource_fifo_ordering():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def body(tag):
        grant = yield resource.request()
        order.append(tag)
        yield sim.timeout(1.0)
        resource.release(grant)

    for tag in ("a", "b", "c"):
        sim.process(body(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_release_twice_is_error():
    sim = Simulator()
    resource = Resource(sim)

    def body():
        grant = yield resource.request()
        resource.release(grant)
        resource.release(grant)

    sim.process(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_release_to_wrong_resource_is_error():
    sim = Simulator()
    first = Resource(sim)
    second = Resource(sim)

    def body():
        grant = yield first.request()
        second.release(grant)

    sim.process(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_lock_reports_locked_state():
    sim = Simulator()
    lock = Lock(sim)
    states = []

    def body():
        grant = yield lock.request()
        states.append(lock.in_use >= lock.capacity)
        yield sim.timeout(1.0)
        lock.release(grant)
        states.append(lock.in_use >= lock.capacity)

    sim.process(body())
    sim.run()
    assert states == [True, False]


def test_byte_range_lock_disjoint_ranges_run_concurrently():
    sim = Simulator()
    lock = ByteRangeLock(sim)
    finish_times = []

    def body(start, end):
        grant = yield lock.acquire(start, end)
        yield sim.timeout(1.0)
        lock.release(grant)
        finish_times.append(sim.now)

    sim.process(body(0, 100))
    sim.process(body(100, 200))
    sim.process(body(200, 300))
    sim.run()
    assert finish_times == [1.0, 1.0, 1.0]


def test_byte_range_lock_overlapping_ranges_serialize():
    sim = Simulator()
    lock = ByteRangeLock(sim)
    finish_times = []

    def body(start, end):
        grant = yield lock.acquire(start, end)
        yield sim.timeout(1.0)
        lock.release(grant)
        finish_times.append(sim.now)

    sim.process(body(0, 100))
    sim.process(body(50, 150))
    sim.run()
    assert finish_times == [1.0, 2.0]


def test_byte_range_lock_fifo_no_starvation():
    sim = Simulator()
    lock = ByteRangeLock(sim)
    order = []

    def holder():
        grant = yield lock.acquire(0, 100)
        yield sim.timeout(1.0)
        lock.release(grant)
        order.append("holder")

    def wide():
        yield sim.timeout(0.1)
        grant = yield lock.acquire(0, 1000)
        order.append("wide")
        yield sim.timeout(1.0)
        lock.release(grant)

    def late_small():
        # Arrives after the wide waiter; overlaps it, so it must queue
        # behind it even though [500, 600) is free right now.
        yield sim.timeout(0.2)
        grant = yield lock.acquire(500, 600)
        order.append("small")
        lock.release(grant)

    sim.process(holder())
    sim.process(wide())
    sim.process(late_small())
    sim.run()
    assert order == ["holder", "wide", "small"]


def test_byte_range_lock_release_unheld_is_error():
    sim = Simulator()
    lock = ByteRangeLock(sim)
    with pytest.raises(SimulationError):
        lock.release((0, 10))


def test_byte_range_lock_rejects_empty_range():
    sim = Simulator()
    lock = ByteRangeLock(sim)
    with pytest.raises(ValueError):
        lock.acquire(10, 10)


# ----------------------------------------------------------------------
# Interrupted waiters and the grant ledger (DESIGN.md 7.3).
# ----------------------------------------------------------------------
def _interrupted_waiter(sim, acquire, release):
    """A holder keeps the grant for 1 s; a waiter queued behind it is
    interrupted at 0.5 s and catches the interrupt."""
    seen = []

    def holder():
        grant = yield acquire()
        yield sim.timeout(1.0)
        release(grant)

    def waiter():
        try:
            yield acquire()
            seen.append("granted")
        except ProcessInterrupt:
            seen.append(("interrupted", sim.now))

    def killer(victim):
        yield sim.timeout(0.5)
        victim.interrupt()

    sim.process(holder())
    sim.process(killer(sim.process(waiter())))
    sim.run()
    return seen


def test_interrupted_lock_waiter_withdraws_its_request():
    sim = Simulator()
    lock = Lock(sim, name="l")
    seen = _interrupted_waiter(sim, lock.request, lock.release)
    assert seen == [("interrupted", 0.5)]
    assert lock.in_use == 0 and len(lock._queue) == 0
    assert sim._grants == {}


def test_interrupted_byte_range_waiter_withdraws_its_request():
    sim = Simulator()
    lock = ByteRangeLock(sim, name="r")
    seen = _interrupted_waiter(sim, lambda: lock.acquire(0, 100), lock.release)
    assert seen == [("interrupted", 0.5)]
    assert lock._held == [] and len(lock._waiters) == 0
    assert sim._grants == {}


def test_withdrawn_range_waiter_unblocks_the_one_behind_it():
    """A later waiter queued only behind the withdrawn one (FIFO
    fairness, not a held range) is granted at once."""
    sim = Simulator()
    lock = ByteRangeLock(sim)
    granted = []

    def holder():
        grant = yield lock.acquire(0, 100)
        yield sim.timeout(1.0)
        lock.release(grant)

    def wide():
        yield lock.acquire(0, 1000)

    def small():
        grant = yield lock.acquire(500, 600)
        granted.append(sim.now)
        lock.release(grant)

    def killer(victim):
        yield sim.timeout(0.5)
        victim.interrupt()

    sim.process(holder())
    victim = sim.process(wide())
    sim.process(small())
    sim.process(killer(victim))
    with pytest.raises(ProcessInterrupt):
        sim.run()
    assert granted == [0.5]


def test_interrupt_hands_back_a_grant_not_yet_delivered():
    """Granted at once, interrupted before the grant reached the body:
    the grant goes back and the body is never resumed with it."""
    sim = Simulator()
    lock = Lock(sim)
    seen = []

    def waiter():
        try:
            yield lock.request()
            seen.append("granted")
        except ProcessInterrupt:
            seen.append("interrupted")
        yield sim.timeout(1.0)
        seen.append(sim.now)

    sim.process(waiter()).interrupt()
    sim.run()
    assert seen == ["interrupted", 1.0]
    assert lock.in_use == 0 and sim._grants == {}


def test_ledger_hand_off_keeps_the_count():
    sim = Simulator()
    lock = Lock(sim)
    counts = []

    def body():
        grant = yield lock.request()
        counts.append(dict(sim._grants))
        yield sim.timeout(1.0)
        lock.release(grant)

    sim.process(body())
    sim.process(body())
    sim.run()
    assert counts == [{lock: 1}, {lock: 1}]
    assert sim._grants == {}


def test_ledger_counts_a_start_io_slot_until_its_callback():
    disk = Disk(Simulator())
    sim = disk.sim
    done = disk.start_io("read", 0, 4096)
    assert sim._grants == {disk._queue: 1}
    sim.run()
    assert done.ok and sim._grants == {}


def test_ledger_follows_the_byte_range_wake_up():
    sim = Simulator()
    lock = ByteRangeLock(sim)
    counts = []

    def body(start, end, hold):
        grant = yield lock.acquire(start, end)
        counts.append((sim.now, sim._grants[lock]))
        yield sim.timeout(hold)
        lock.release(grant)

    sim.process(body(0, 100, 1.0))
    sim.process(body(200, 300, 2.0))
    sim.process(body(50, 150, 1.0))  # woken when [0, 100) is released
    sim.run()
    assert counts == [(0.0, 2), (0.0, 2), (1.0, 2)]
    assert sim._grants == {}


def test_run_until_mid_grant_is_not_refused():
    sim = Simulator()
    lock = Lock(sim)

    def body():
        grant = yield lock.request()
        yield sim.timeout(10.0)
        lock.release(grant)

    sim.process(body())
    assert sim.run(until=5.0) == 5.0
    assert sim._grants == {lock: 1}
    sim.run()
    assert sim._grants == {}


def test_deadlock_error_names_the_held_resources():
    sim = Simulator()
    lock = Lock(sim, name="xor-bus")

    def body():
        yield lock.request()
        yield sim.event()  # never fires

    sim.process(body())
    with pytest.raises(DeadlockError, match="holding xor-bus x1"):
        sim.run()


def test_lone_holder_that_never_releases_is_refused():
    """Nobody waits behind the grant, so nothing deadlocks: only the
    ledger sees it."""
    sim = Simulator()
    lock = Lock(sim, name="reconstruct")

    def body():
        yield lock.request()
        yield sim.timeout(1.0)

    sim.process(body())
    with pytest.raises(SimulationError, match=r"t=1\.0 still holding reconstruct x1"):
        sim.run()


def test_snapshot_requires_an_empty_ledger():
    sim = Simulator()
    lock = Lock(sim)
    grant = lock.try_acquire()
    with pytest.raises(SimulationError, match="no held grants"):
        pickle.dumps(sim)
    lock.release(grant)
    assert pickle.loads(pickle.dumps(sim))._grants == {}
