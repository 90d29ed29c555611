"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import ProcessInterrupt, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def body():
        yield sim.timeout(1.5)
        seen.append(sim.now)
        yield sim.timeout(0.5)
        seen.append(sim.now)

    sim.process(body())
    sim.run()
    assert seen == [1.5, 2.0]
    assert sim.now == 2.0


def test_events_fire_in_time_order_with_fifo_ties():
    sim = Simulator()
    order = []

    def body(tag, delay):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(body("b", 2.0))
    sim.process(body("a", 1.0))
    sim.process(body("tie1", 1.0))
    sim.process(body("tie2", 1.0))
    sim.run()
    assert order == ["a", "tie1", "tie2", "b"]


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent(results):
        value = yield sim.process(child())
        results.append(value)

    results = []
    sim.process(parent(results))
    sim.run()
    assert results == [42]


def test_run_process_returns_value():
    sim = Simulator()

    def body():
        yield sim.timeout(3.0)
        return "done"

    assert sim.run_process(body()) == "done"
    assert sim.now == 3.0


def test_unobserved_process_failure_raises_from_run():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    sim.process(body())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_observed_process_failure_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent(results):
        try:
            yield sim.process(child())
        except ValueError as err:
            results.append(str(err))

    results = []
    sim.process(parent(results))
    sim.run()
    assert results == ["inner"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    def opener():
        yield sim.timeout(2.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == ["open"]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        try:
            yield gate
        except KeyError as err:
            seen.append(type(err).__name__)

    def failer():
        yield sim.timeout(1.0)
        gate.fail(KeyError("nope"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert seen == ["KeyError"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def body():
        timeouts = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
        values = yield sim.all_of(timeouts)
        return values

    assert sim.run_process(body()) == ["c", "a", "b"]
    assert sim.now == 3.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def body():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(body()) == []


def test_deadlock_detection():
    sim = Simulator()

    def body():
        yield sim.event()  # never triggered

    sim.process(body())
    with pytest.raises(DeadlockError):
        sim.run()


def test_run_until_stops_early():
    sim = Simulator()
    seen = []

    def body():
        yield sim.timeout(10.0)
        seen.append("late")

    sim.process(body())
    sim.run(until=5.0)
    assert seen == []
    assert sim.now == 5.0


def test_interrupt_raises_inside_process():
    sim = Simulator()
    seen = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except ProcessInterrupt as err:
            seen.append(str(err))

    def killer(proc):
        yield sim.timeout(1.0)
        proc.interrupt("stop now")

    proc = sim.process(victim())
    sim.process(killer(proc))
    sim.run()
    assert seen == ["stop now"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def body():
        yield 5  # not an Event

    sim.process(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_nested_process_chains():
    sim = Simulator()

    def leaf(n):
        yield sim.timeout(float(n))
        return n * 2

    def mid(n):
        value = yield sim.process(leaf(n))
        return value + 1

    def root():
        values = yield sim.all_of([sim.process(mid(i)) for i in range(1, 4)])
        return values

    assert sim.run_process(root()) == [3, 5, 7]
