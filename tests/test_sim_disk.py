"""Unit tests for the hard-drive timing model."""

import pytest

from repro import units
from repro.errors import DiskFailedError
from repro.sim.disk import Disk, DiskGeometry
from repro.sim.engine import Simulator


def make_disk(sim, **overrides):
    geometry = DiskGeometry(**overrides) if overrides else DiskGeometry()
    return Disk(sim, geometry, name="d0")


def test_sequential_io_pays_only_transfer_time():
    sim = Simulator()
    disk = make_disk(sim)

    def body():
        first = yield from disk.write(0, 64 * units.MiB)
        second = yield from disk.write(64 * units.MiB, 64 * units.MiB)
        return first, second

    first, second = sim.run_process(body())
    expected = 64 * units.MiB / disk.geometry.transfer_rate
    assert first == pytest.approx(expected)
    # The second write starts at the head position: no seek at all.
    assert second == pytest.approx(expected)
    assert disk.stats.seeks == 0


def test_random_io_pays_seek_and_rotation():
    sim = Simulator()
    disk = make_disk(sim)

    def body():
        yield from disk.write(0, units.MiB)
        far = disk.geometry.capacity // 2
        duration = yield from disk.write(far, units.MiB)
        return duration

    duration = sim.run_process(body())
    transfer = units.MiB / disk.geometry.transfer_rate
    assert duration > transfer + disk.geometry.rotational_latency
    assert disk.stats.seeks == 1
    assert disk.stats.seek_seconds > 0


def test_near_seek_is_cheap():
    sim = Simulator()
    disk = make_disk(sim)

    def body():
        yield from disk.write(0, units.MiB)
        # Hop backward by less than the near threshold.
        duration = yield from disk.write(512 * units.KiB, units.MiB)
        return duration

    duration = sim.run_process(body())
    transfer = units.MiB / disk.geometry.transfer_rate
    assert duration == pytest.approx(transfer + disk.geometry.seek_min)


def test_seek_time_monotone_in_distance():
    geometry = DiskGeometry()
    distances = [4 * units.MiB, units.GiB, 100 * units.GiB, geometry.capacity]
    times = [geometry.seek_time(d) for d in distances]
    assert times == sorted(times)
    assert times[-1] == pytest.approx(geometry.seek_full)


def test_io_serializes_through_fifo_queue():
    sim = Simulator()
    disk = make_disk(sim)
    finish = []

    def body(offset):
        yield from disk.write(offset, 64 * units.MiB)
        finish.append(sim.now)

    sim.process(body(0))
    sim.process(body(units.GiB))
    sim.run()
    # The second I/O cannot start before the first finished.
    assert finish[1] > finish[0]


def test_interleaved_writers_ping_pong_head():
    """Two concurrent writers at distant offsets cause a seek per I/O."""
    sim = Simulator()
    disk = make_disk(sim)

    def writer(base):
        for i in range(4):
            yield from disk.write(base + i * units.MiB, units.MiB)

    sim.process(writer(0))
    sim.process(writer(500 * units.GiB))
    sim.run()
    # FIFO alternation: every I/O after the first jumps across the disk.
    assert disk.stats.seeks >= 6


def test_failed_disk_raises():
    sim = Simulator()
    disk = make_disk(sim)
    disk.fail()

    def body():
        yield from disk.read(0, units.KiB)

    sim.process(body())
    with pytest.raises(DiskFailedError):
        sim.run()


def test_failure_mid_queue_kills_waiting_io():
    sim = Simulator()
    disk = make_disk(sim)
    outcomes = []

    def long_writer():
        yield from disk.write(0, units.GiB)
        outcomes.append("long-done")

    def failer():
        yield sim.timeout(0.001)
        disk.fail()
        outcomes.append("failed")

    def late_writer():
        yield sim.timeout(0.002)
        try:
            yield from disk.write(units.GiB, units.MiB)
        except DiskFailedError:
            outcomes.append("late-error")

    sim.process(long_writer())
    sim.process(failer())
    proc = sim.process(late_writer())
    with pytest.raises(DiskFailedError):
        # The long writer itself dies when the disk fails under it.
        sim.run()
    assert "late-error" in outcomes or not proc.is_alive


def test_a_refused_io_is_not_a_completed_one():
    """Requests granted after the disk died are refused uncharged: they
    leave no latency sample, so the auditor's own inequality (samples
    <= reads + writes + syncs) holds and the windowed percentiles count
    only I/Os that ran."""
    sim = Simulator()
    disk = make_disk(sim)
    refused = []

    def runner():
        with pytest.raises(DiskFailedError):
            yield from disk.write(0, 64 * units.MiB)

    def queued(body):
        yield sim.timeout(0.001)  # queue behind the running write
        try:
            yield from body
        except DiskFailedError:
            refused.append(sim.now)

    def failer():
        yield sim.timeout(0.002)
        disk.fail()

    sim.process(runner())
    sim.process(queued(disk.read(units.GiB, units.MiB)))
    sim.process(queued(disk.sync()))
    sim.process(queued(disk.read_modify_write(2 * units.GiB, units.MiB)))
    sim.process(failer())
    sim.run()
    assert len(refused) == 3
    # One charged write (it died under the head), nothing else.
    assert (disk.stats.ios, disk.stats.syncs) == (1, 0)
    assert disk.io_latency.total == 1
    assert disk.queue_gauge.current == 0
    assert disk.audit_state() == []


def test_out_of_range_io_rejected():
    sim = Simulator()
    disk = make_disk(sim, capacity=units.GiB)

    def body():
        yield from disk.write(units.GiB, 1)

    sim.process(body())
    with pytest.raises(ValueError):
        sim.run()


def test_stats_accumulate():
    sim = Simulator()
    disk = make_disk(sim)

    def body():
        yield from disk.write(0, 10 * units.MiB)
        yield from disk.read(0, 10 * units.MiB)
        yield from disk.sync()

    sim.run_process(body())
    assert disk.stats.reads == 1
    assert disk.stats.writes == 1
    assert disk.stats.bytes_read == 10 * units.MiB
    assert disk.stats.bytes_written == 10 * units.MiB
    assert disk.stats.syncs == 1
    assert disk.stats.busy_seconds > 0
    snap = disk.stats.snapshot()
    assert snap.ios == 2
    assert snap.bytes_total == 20 * units.MiB


def test_estimate_matches_charge():
    sim = Simulator()
    disk = make_disk(sim)

    def body():
        yield from disk.write(0, units.MiB)
        offset = 700 * units.GiB
        estimate = disk.estimate(offset, units.MiB)
        actual = yield from disk.write(offset, units.MiB)
        return estimate, actual

    estimate, actual = sim.run_process(body())
    assert estimate == pytest.approx(actual)


def test_repair_resets_head_and_clears_failure():
    sim = Simulator()
    disk = make_disk(sim)
    disk.fail()
    disk.repair()

    def body():
        duration = yield from disk.write(0, units.MiB)
        return duration

    assert sim.run_process(body()) > 0
    assert not disk.failed


# ----------------------------------------------------------------------
# start_io: an I/O awaited as an event.  On an idle FIFO disk it holds
# the queue slot from the call to the completion callback in one
# schedule entry; everything observable must equal the queued process.
# ----------------------------------------------------------------------
_STREAM_OPS = [
    ("write", 0, 4 * units.MiB),
    ("write", 4 * units.MiB, 4 * units.MiB),  # sequential: no seek
    ("read", 512 * units.MiB, 8 * units.MiB),  # far seek + rotation
    ("read", 520 * units.MiB, 2 * units.MiB),
    ("write", units.MiB, 3 * units.MiB),  # backward seek
]


def _observables(sim, disk, tracer):
    spans = [
        (e.name, e.ts, e.dur, e.attrs)
        for e in tracer.events
        if e.phase == "X" and e.category == "disk"
    ]
    return (
        sim.now,
        disk.head,
        disk.stats,
        disk.queue_gauge._area,
        disk.queue_gauge.max_value,
        disk.queue_gauge.average(sim.now),
        disk.io_latency.counts,
        disk.io_latency.sum,
        disk.io_latency.max,
        spans,
    )


def _run_ops(start):
    """Drive _STREAM_OPS back to back; ``start(disk, op)`` yields the event."""
    from repro.obs import tracer as tracing

    with tracing.capture() as tracer:
        sim = Simulator()
        disk = make_disk(sim)

        def body():
            durations = []
            for kind, offset, nbytes in _STREAM_OPS:
                durations.append((yield start(sim, disk, kind, offset, nbytes)))
            return durations

        durations = sim.run_process(body())
    return durations, _observables(sim, disk, tracer), sim._seq


def test_start_io_matches_queued_path_exactly():
    def as_process(sim, disk, kind, offset, nbytes):
        op = disk.read if kind == "read" else disk.write
        return sim.process(op(offset, nbytes))

    def as_event(sim, disk, kind, offset, nbytes):
        return disk.start_io(kind, offset, nbytes)

    queued_durations, queued_seen, queued_seq = _run_ops(as_process)
    event_durations, event_seen, event_seq = _run_ops(as_event)
    assert event_durations == queued_durations  # bitwise, not approx
    assert event_seen == queued_seen
    assert len(queued_seen[-1]) == len(_STREAM_OPS)  # the spans were compared
    # One schedule entry per I/O where the process took four (bootstrap,
    # grant, sleep, completion).
    assert queued_seq - event_seq == 3 * len(_STREAM_OPS)


def test_start_io_second_requester_queues_and_is_granted_at_release():
    sim = Simulator()
    disk = make_disk(sim)
    log = []

    def first():
        duration = yield disk.start_io("write", 0, 64 * units.MiB)
        log.append(("first", sim.now, duration))

    def second(label, use_event, at):
        yield sim.timeout(at)  # mid-I/O: the slot is taken
        assert disk._queue.in_use == 1
        if use_event:
            # A busy disk takes the queued path: a process, behind `first`.
            event = disk.start_io("write", 64 * units.MiB, units.MiB)
            assert type(event).__name__ == "Process"
            duration = yield event
        else:
            duration = yield from disk.write(65 * units.MiB, units.MiB)
        log.append((label, sim.now, duration))

    sim.process(first())
    sim.process(second("second", use_event=True, at=0.0001))
    sim.process(second("third", use_event=False, at=0.0002))
    sim.run()
    whole = 64 * units.MiB / disk.geometry.transfer_rate
    one = units.MiB / disk.geometry.transfer_rate
    # FIFO: granted at the first I/O's release, in arrival order, each
    # sequential to the last (no seek), so the times add up exactly.
    assert [label for label, _t, _d in log] == ["first", "second", "third"]
    assert log[0][1:] == (whole, whole)
    assert log[1][1:] == (whole + one, one)
    assert log[2][1:] == (whole + one + one, one)
    assert disk.stats.seeks == 0
    assert disk._queue.in_use == 0 and disk._queue.queue_length == 0
    assert disk.queue_gauge.max_value == 3.0
    assert disk.audit_state() == []


@pytest.mark.parametrize("fail_at", ["before", "during"])
def test_start_io_failure_arrives_through_the_event(fail_at):
    sim = Simulator()
    disk = make_disk(sim)
    seen = []

    def body():
        if fail_at == "before":
            disk.fail()
        event = disk.start_io("read", 0, 64 * units.MiB)  # must not raise here
        flow = sim.timeout(10.0)
        try:
            yield sim.all_of([event, flow])
        except DiskFailedError as err:
            seen.append((sim.now, str(err)))

    def saboteur():
        yield sim.timeout(0.1)
        disk.fail()

    sim.process(body())
    if fail_at == "during":
        sim.process(saboteur())
    sim.run()
    duration = 64 * units.MiB / disk.geometry.transfer_rate
    # Failed before: the error surfaces at once.  Failed while the head
    # moved: at the I/O's own completion time, like _io's re-check.
    assert seen == [(0.0 if fail_at == "before" else duration, "I/O on failed disk d0")]
    # The slot is free again and the books balance: no grant leaked.
    assert disk._queue.in_use == 0 and disk._queue.queue_length == 0
    assert disk.queue_gauge._value == 0.0
    assert disk.audit_state() == []
    disk.repair()
    assert sim.run_process(disk.read(0, units.MiB)) > 0


def test_start_io_out_of_bounds_arrives_through_the_event():
    sim = Simulator()
    disk = make_disk(sim)

    def body():
        event = disk.start_io("read", disk.geometry.capacity, units.MiB)
        with pytest.raises(ValueError, match="outside disk"):
            yield event
        return "survived"

    assert sim.run_process(body()) == "survived"
    assert disk._queue.in_use == 0
