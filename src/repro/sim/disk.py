"""Mechanical hard-drive timing model with failure injection.

The drive is modeled at the level that matters for the paper's results:
positioning cost (seek + rotational latency) versus streaming transfer.
The paper's cluster uses 7200 RPM 2 TB SATA drives; the default geometry
matches that class of device.

An I/O that starts exactly where the head currently rests is *sequential*
and pays only transfer time.  Any other I/O pays a seek whose duration
grows with the square root of the byte distance travelled (the standard
first-order approximation of arm movement) plus half a rotation of
latency.  The disk serializes I/O through a FIFO :class:`Resource`, so
concurrent writers naturally interleave and "ping-pong" the head exactly
as described in the paper's Section 5.

Data content is *not* stored here -- the disk is pure timing.  Byte
payloads live in :mod:`repro.storage` stores owned by the DataNode layer,
which keeps functional correctness (real XOR parity, bit-exact recovery)
separate from timing fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro import units
from repro.errors import DiskFailedError
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource
from repro.sim.stats import Histogram, TimeWeightedGauge
from repro.sim.snapshot import InlineState


@dataclass(frozen=True)
class DiskGeometry(InlineState):
    """Timing parameters of a spinning drive.

    Defaults approximate a 7200 RPM 2 TB SATA drive of the paper's era:
    ~0.5 ms minimum (track-to-track) seek, ~8.5 ms average seek, ~16 ms
    full-stroke seek, 4.17 ms average rotational latency (half of a
    7200 RPM revolution), and ~140 MB/s sustained media rate.
    """

    capacity: int = 2 * units.TB
    seek_min: float = 0.5 * units.MSEC
    seek_avg: float = 8.5 * units.MSEC
    seek_full: float = 16.0 * units.MSEC
    rotational_latency: float = 4.17 * units.MSEC
    transfer_rate: float = 140 * units.MB  # bytes/second
    # I/Os within this distance of the head are treated as near-sequential
    # (settle only, no rotational loss): models track-buffer readahead and
    # the paper's "write scheduled immediately after its related read"
    # reduced-rotational-delay case.
    near_threshold: int = 2 * units.MiB

    def seek_time(self, distance: int) -> float:
        """Seek duration for a head movement of ``distance`` bytes."""
        if distance <= 0:
            return 0.0
        if distance <= self.near_threshold:
            return self.seek_min
        # Square-root interpolation between the average seek (at 1/3 of a
        # full stroke, the expected random-seek distance) and the full
        # stroke, anchored at the minimum seek for short hops.
        frac = min(distance / self.capacity, 1.0)
        span = self.seek_full - self.seek_min
        return self.seek_min + span * math.sqrt(frac)

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.transfer_rate

    @property
    def sync_time(self) -> float:
        """A cache flush: a settle plus half a rotation (:meth:`Disk.sync`)."""
        return self.seek_min + self.rotational_latency

    def reposition_time(self, distance: float) -> float:
        """Seek plus any rotational loss of a head move of ``distance``."""
        if distance == 0:
            return 0.0
        seek = self.seek_time(int(distance))
        if distance > self.near_threshold:
            seek += self.rotational_latency
        return seek


def ssd_geometry(
    capacity: int = 2 * units.TB, transfer_rate: float = 520 * units.MB
) -> DiskGeometry:
    """A SATA-SSD-class geometry (paper §8's media what-if).

    No mechanical positioning: "seeks" collapse to a ~60 us command
    latency and there is no rotational delay, so random I/O costs almost
    the same as sequential -- which is exactly why the paper expects
    RAIDP's random-I/O penalties to shrink on flash.
    """
    return DiskGeometry(
        capacity=capacity,
        seek_min=60 * units.USEC,
        seek_avg=60 * units.USEC,
        seek_full=60 * units.USEC,
        rotational_latency=0.0,
        transfer_rate=transfer_rate,
        near_threshold=0,
    )


@dataclass
class DiskStats(InlineState):
    """Cumulative I/O accounting for one disk."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    seek_seconds: float = 0.0
    busy_seconds: float = 0.0
    syncs: int = 0

    @property
    def ios(self) -> int:
        return self.reads + self.writes


class Disk(InlineState):
    """One simulated drive: a head position, a FIFO queue, and stats."""

    def __init__(
        self,
        sim: Simulator,
        geometry: Optional[DiskGeometry] = None,
        name: str = "disk",
    ) -> None:
        self.sim = sim
        self.geometry = geometry or DiskGeometry()
        self.name = name
        self.head = 0  # byte offset the head currently rests at
        self.failed = False
        self.stats = DiskStats()
        # Live instruments the metrics reader reads: queue depth over time and
        # end-to-end I/O latency (queueing included).
        self.queue_gauge = TimeWeightedGauge(start_time=sim.now)
        self.io_latency = Histogram(bounds=(0.001, 0.005, 0.02, 0.1, 0.5, 2.0))
        self._queue = Resource(sim, capacity=1, name=f"{name}.queue")
        #: Open stream-body runs (see :class:`DiskRun`), in opening order
        #: -> (the callback that cuts the run off if the disk dies, the one
        #: that tells its body the disk changed hands).
        self._runs: Dict[
            "DiskRun", Tuple[Callable[[DiskFailedError], None], Callable[[], None]]
        ] = {}
        #: The queued I/O holding the FIFO slot is letting the open runs
        #: take their turn first (:meth:`_yield_to_runs`).
        self._runs_turn = False

    def audit_state(self) -> List[str]:
        """Internal-consistency problems, as strings (empty = healthy).

        Read-only: probed by the flight-recorder auditor at sample
        points.  Latency samples are recorded at I/O completion, so
        in-flight operations may lag the histogram -- the check is an
        inequality, never an exact match.
        """
        problems: List[str] = []
        depth = self.queue_gauge.current
        if depth < 0:
            problems.append(f"disk {self.name}: negative queue depth {depth}")
        completed = self.stats.ios + self.stats.syncs
        if self.io_latency.total > completed:
            problems.append(
                f"disk {self.name}: {self.io_latency.total} latency samples "
                f"exceed {completed} completed operations"
            )
        if self.stats.bytes_read < 0 or self.stats.bytes_written < 0:
            problems.append(f"disk {self.name}: negative byte accounting")
        if self.failed and self._runs:
            problems.append(f"disk {self.name}: a stream run outlived the disk")
        return problems

    # ------------------------------------------------------------------
    # Failure injection.
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the disk failed; all subsequent I/O raises, and every
        open stream run is cut off at this instant."""
        self.failed = True
        for cut, _wake in list(self._runs.values()):
            cut(DiskFailedError(f"I/O on failed disk {self.name}"))

    # ------------------------------------------------------------------
    # Open runs and the FIFO.  A run does not queue, so the disk shares
    # itself out: a queued I/O that holds the FIFO slot first lets every
    # open run take the chunk it would have had queued ahead of it (the
    # runs' turn: one chunk apiece at the media rate), then stalls them
    # while it is served.  Back-to-back queued I/O thus alternates with
    # the runs chunk by chunk, as the chunk loops they stand for would.
    # ------------------------------------------------------------------
    def _wake_runs(self) -> None:
        """Tell the open runs' bodies the disk changed hands."""
        for _cut, wake in self._runs.values():
            wake()

    def _yield_to_runs(self) -> Generator:
        """The runs' turn, taken by the queued I/O holding the slot
        (process body: drive with ``yield from`` right after the grant);
        leaves the runs stalled behind the I/O."""
        self._runs_turn = True
        self._wake_runs()
        try:
            transfer_time = self.geometry.transfer_time
            yield self.sim.timeout(
                math.fsum(transfer_time(run.chunk) + run.overhead for run in self._runs)
            )
        finally:
            self._runs_turn = False
            self._wake_runs()

    def run_rate(self, runs: Sequence[Tuple["DiskRun", float]]) -> float:
        """Bytes/s the disk passes to its open runs together, given each
        run with its head position, in opening order.

        Nothing while a queued I/O is served (or the disk is dead).
        Otherwise the runs' chunks interleave through the FIFO in turn,
        one round at a time: each chunk's transfer, plus its run's fixed
        per-chunk overhead (a packet train's sync), plus -- with several
        runs -- the head move from the previous chunk's end.  A lone run
        without overhead streams at the media rate.
        """
        if self.failed or (self._queue.in_use and not self._runs_turn):
            return 0.0
        geometry = self.geometry
        if len(runs) < 2 and not (runs and runs[0][0].overhead):
            return geometry.transfer_rate
        busy = math.fsum(
            geometry.transfer_time(run.chunk) + run.overhead + seek
            for (run, _head), seek in zip(runs, self._round_seeks(runs))
        )
        return math.fsum(run.chunk for run, _head in runs) / busy

    def _round_seeks(self, runs: Sequence[Tuple["DiskRun", float]]) -> List[float]:
        """Each run's head move in a round: from the previous run's chunk
        end to its head (none for a lone run)."""
        if len(runs) < 2:
            return [0.0] * len(runs)
        reposition = self.geometry.reposition_time
        ends = [head + run.chunk for run, head in runs]
        return [reposition(abs(head - ends[i - 1])) for i, (_run, head) in enumerate(runs)]

    def settle_runs(self, runs: Sequence[Tuple["DiskRun", float]]) -> None:
        """The open runs (with their head positions, in opening order)
        are about to change: each accounts the chunks it moved since they
        last did, with its head move in the round they ran."""
        for (run, head), seek in zip(runs, self._round_seeks(runs)):
            run.settle(head, seek)

    def repair(self) -> None:
        """Bring a (replaced) disk back; its content is gone, head at 0."""
        self.failed = False
        self.head = 0

    def _check_alive(self) -> None:
        if self.failed:
            raise DiskFailedError(f"I/O on failed disk {self.name}")

    # ------------------------------------------------------------------
    # I/O.  read/write/sync/read_modify_write are process bodies: drive
    # them with ``yield from``.  start_io returns an event to wait on
    # beside other events.  A latency sample is recorded for an I/O that
    # ran, never for one refused at its grant because the disk died
    # while it queued: nothing was charged for that one.  With runs open,
    # every one of them gives the runs their turn once it holds the FIFO
    # slot, and wakes them when it frees it.
    # ------------------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> Generator:
        """Read ``nbytes`` at ``offset``; returns the I/O duration."""
        return self._io("read", offset, nbytes)

    def write(self, offset: int, nbytes: int) -> Generator:
        """Write ``nbytes`` at ``offset``; returns the I/O duration."""
        return self._io("write", offset, nbytes)

    def sync(self) -> Generator:
        """Flush the write cache: a cache-flush barrier.

        Costs a settle plus half a rotation -- the media must commit the
        in-flight sectors before the barrier completes, which is why
        sync-per-packet workloads collapse (paper Fig. 8, unoptimized).
        """
        self._check_alive()
        sim = self.sim
        t0 = sim.now
        self.queue_gauge.adjust(1.0, t0)
        try:
            grant = yield self._queue.request()
        except BaseException:
            self.queue_gauge.adjust(-1.0, sim.now)
            raise
        try:
            if self._runs:
                yield from self._yield_to_runs()
            self._check_alive()
            delay = self.geometry.sync_time
            yield sim.timeout(delay)
            self.stats.syncs += 1
            self.stats.busy_seconds += delay
            self.io_latency.observe(sim.now - t0)
        finally:
            self.queue_gauge.adjust(-1.0, sim.now)
            self._queue.release(grant)
            if self._runs:
                self._wake_runs()
        trace = sim.trace
        if trace.enabled:
            trace.complete("disk", "sync", t0, sim.now, disk=self.name)
        return None

    def seek(self, offset: int) -> Generator:
        """Move the head to ``offset`` ahead of a packet train opening
        there: one queued reposition, counted as a seek.  Nothing when
        the head is already there or runs are open -- their round
        charges every chunk's head move (:meth:`run_rate`)."""
        if self._runs or self.head == offset:
            return None
        self._check_alive()
        sim = self.sim
        t0 = sim.now
        self.queue_gauge.adjust(1.0, t0)
        try:
            grant = yield self._queue.request()
        except BaseException:
            self.queue_gauge.adjust(-1.0, sim.now)
            raise
        try:
            if self._runs:
                yield from self._yield_to_runs()
            self._check_alive()
            delay = self.geometry.reposition_time(abs(offset - self.head))
            self.head = offset
            yield sim.timeout(delay)
            self.stats.seeks += 1
            self.stats.seek_seconds += delay
            self.stats.busy_seconds += delay
        finally:
            self.queue_gauge.adjust(-1.0, sim.now)
            self._queue.release(grant)
            if self._runs:
                self._wake_runs()
        trace = sim.trace
        if trace.enabled:
            trace.complete("disk", "seek", t0, sim.now, disk=self.name)
        return None

    def read_modify_write(
        self, offset: int, nbytes: int, read_bytes: Optional[int] = None
    ) -> Generator:
        """Read a region and immediately rewrite it, atomically queued.

        Models the paper's §3.2 scheduling: the write is issued right
        after its related read with no intervening I/O, so the rewrite
        pays only a short settle instead of a full seek + rotation.
        ``read_bytes`` (default: all of ``nbytes``) is how much of the
        old data actually reaches the media -- the rest is served from
        cache.  Returns the combined duration.
        """
        if offset < 0 or nbytes < 0 or offset + nbytes > self.geometry.capacity:
            raise ValueError(
                f"rmw outside disk {self.name}: offset={offset} nbytes={nbytes}"
            )
        if read_bytes is None:
            read_bytes = nbytes
        if not 0 <= read_bytes <= nbytes:
            raise ValueError(f"read_bytes {read_bytes} outside [0, {nbytes}]")
        self._check_alive()
        sim = self.sim
        t0 = sim.now
        self.queue_gauge.adjust(1.0, t0)
        try:
            grant = yield self._queue.request()
        except BaseException:
            self.queue_gauge.adjust(-1.0, sim.now)
            raise
        try:
            if self._runs:
                yield from self._yield_to_runs()
            self._check_alive()
            duration = self._charge("read", offset, read_bytes)
            # Rewrite of the just-read region: reduced rotational delay.
            settle = self.geometry.seek_min + self.geometry.rotational_latency / 2
            duration += settle + self.geometry.transfer_time(nbytes)
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
            self.stats.busy_seconds += settle + self.geometry.transfer_time(nbytes)
            self.head = offset + nbytes
            yield sim.timeout(duration)
            self.io_latency.observe(sim.now - t0)
            self._check_alive()
        finally:
            self.queue_gauge.adjust(-1.0, sim.now)
            self._queue.release(grant)
            if self._runs:
                self._wake_runs()
        trace = sim.trace
        if trace.enabled:
            trace.complete("disk", "rmw", t0, sim.now, disk=self.name, bytes=nbytes)
        return duration

    def _io(self, kind: str, offset: int, nbytes: int) -> Generator:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.geometry.capacity:
            raise ValueError(
                f"{kind} outside disk {self.name}: offset={offset} nbytes={nbytes}"
            )
        # _check_alive() inlined throughout: this body runs once per
        # simulated I/O and the failure flag is a plain attribute.
        if self.failed:
            raise DiskFailedError(f"I/O on failed disk {self.name}")
        sim = self.sim
        queue_gauge = self.queue_gauge
        t0 = sim.now
        queue_gauge.adjust(1.0, t0)
        try:
            grant = yield self._queue.request()
        except BaseException:
            queue_gauge.adjust(-1.0, sim.now)
            raise
        try:
            if self._runs:
                yield from self._yield_to_runs()
            if self.failed:
                raise DiskFailedError(f"I/O on failed disk {self.name}")
            duration = self._charge(kind, offset, nbytes)
            yield sim.timeout(duration)
            self.io_latency.observe(sim.now - t0)
            if self.failed:
                raise DiskFailedError(f"I/O on failed disk {self.name}")
        finally:
            queue_gauge.adjust(-1.0, sim.now)
            self._queue.release(grant)
            if self._runs:
                self._wake_runs()
        trace = sim.trace
        if trace.enabled:
            trace.complete("disk", kind, t0, sim.now, disk=self.name, bytes=nbytes)
        return duration

    def start_io(self, kind: str, offset: int, nbytes: int) -> Event:
        """Start a read/write now; returns the event of its completion.

        For callers that overlap a disk I/O with something else (the
        recovery puller's ``all_of([read, flow])``) instead of driving
        :meth:`read`/:meth:`write` with ``yield from``.  The event's
        value is the I/O duration; every failure ``_io`` can raise --
        out of bounds, failed before, failed while the head moved --
        arrives through the event, never at the call.

        When the FIFO queue is idle and no run is open (no turn to
        give, :meth:`_yield_to_runs`) the I/O takes its slot at the call,
        is charged at once and costs one schedule entry: the returned
        timeout, whose first callback closes the accounting and releases
        the slot (handing it to whoever queued meanwhile) before any
        waiter sees the event.  Otherwise -- busy queue, or an error to
        deliver -- it is ``_io`` in a process of its own.
        Completion time, head, stats, queue gauge, latency histogram and
        trace span are those of the queued path either way
        (``tests/test_sim_disk.py`` checks the equivalence).
        """
        sim = self.sim
        queue = self._queue
        grant = None
        if not (
            self.failed
            or self._runs
            or offset < 0
            or nbytes < 0
            or offset + nbytes > self.geometry.capacity
        ):
            grant = queue.try_acquire()
        if grant is None:
            return sim.process(self._io(kind, offset, nbytes))
        t0 = sim.now
        queue_gauge = self.queue_gauge
        queue_gauge.adjust(1.0, t0)
        duration = self._charge(kind, offset, nbytes)
        done = sim.timeout(duration, duration)

        def complete(event: Event) -> None:
            now = sim.now
            queue_gauge.adjust(-1.0, now)
            self.io_latency.observe(now - t0)
            queue.release(grant)
            if self._runs:
                self._wake_runs()
            if self.failed:
                # Waiters attach after this callback, so they all see
                # the failure, as if the event had been failed outright.
                event._exception = DiskFailedError(f"I/O on failed disk {self.name}")
                return
            trace = sim.trace
            if trace.enabled:
                trace.complete("disk", kind, t0, now, disk=self.name, bytes=nbytes)

        done._callbacks = complete
        return done

    def _charge(self, kind: str, offset: int, nbytes: int) -> float:
        """Compute the I/O duration and update head position and stats."""
        geometry = self.geometry
        distance = abs(offset - self.head)
        duration = geometry.transfer_time(nbytes)
        if distance != 0:
            seek = geometry.reposition_time(distance)
            duration += seek
            self.stats.seeks += 1
            self.stats.seek_seconds += seek
        self.head = offset + nbytes
        if kind == "read":
            self.stats.reads += 1
            self.stats.bytes_read += nbytes
        else:
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
        self.stats.busy_seconds += duration
        return duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "FAILED" if self.failed else "ok"
        return f"<Disk {self.name} {state} head={self.head} ios={self.stats.ios}>"


class DiskRun:
    """A stream body's side of a disk: the sequential run it reads or
    writes from ``offset`` on (:meth:`repro.sim.network.Switch.stream`).

    The third way to await a disk I/O (DESIGN.md §7.3).  The run is one
    long I/O, ``chunk`` bytes at a time, that does not take the FIFO
    slot; instead the disk is a shared constraint of the bodies on it
    (:meth:`Disk.run_rate`): the open runs split its rate, and a queued
    I/O gives them their turn and then stalls them while it is served.
    The run counts in the queue gauge while open, and its bytes, busy
    seconds and trace span are charged when it closes -- with the bytes
    the body actually moved, so a run the disk's death cuts short
    charges what it read, as one sequential transfer.  No latency sample
    is taken, and the head moves between interleaved runs slow them
    without counting as seeks: the chunk I/Os the run stands for are not
    simulated one by one.  ``overhead`` is the fixed time each chunk
    costs the disk on top of its transfer (none for a stream body).
    """

    __slots__ = ("disk", "kind", "offset", "chunk", "t0", "overhead")

    def __init__(self, disk: Disk, kind: str, offset: int) -> None:
        self.disk = disk
        self.kind = kind
        self.offset = offset
        self.chunk = 0
        self.t0 = 0.0
        self.overhead = 0.0

    @property
    def rate(self) -> float:
        return self.disk.geometry.transfer_rate

    def open(
        self,
        nbytes: int,
        chunk: int,
        cut: Callable[[DiskFailedError], None],
        wake: Callable[[], None],
    ) -> Optional[DiskFailedError]:
        """Start the run of ``nbytes``, ``chunk`` at a time; ``cut`` is
        called if the disk dies before it closes, ``wake`` whenever the
        disk changes hands between the runs and a queued I/O meanwhile.
        Returns the error instead when the disk is dead now."""
        disk = self.disk
        if self.offset < 0 or self.offset + nbytes > disk.geometry.capacity:
            raise ValueError(
                f"{self.kind} run outside disk {disk.name}: "
                f"offset={self.offset} nbytes={nbytes}"
            )
        if disk.failed:
            return DiskFailedError(f"I/O on failed disk {disk.name}")
        self.chunk = chunk
        self.t0 = disk.sim.now
        disk.queue_gauge.adjust(1.0, self.t0)
        disk._runs[self] = (cut, wake)
        return None

    def settle(self, head: float, seek: float) -> None:
        """The disk's runs are about to change; this one's head is at
        ``head`` and each of its chunks moved the head for ``seek``
        seconds since they last changed (:meth:`Disk.settle_runs`)."""

    def close(self, nbytes: int) -> None:
        """End the run, charging the ``nbytes`` it moved."""
        disk = self.disk
        sim = disk.sim
        del disk._runs[self]
        disk.queue_gauge.adjust(-1.0, sim.now)
        self._charge(nbytes)
        trace = sim.trace
        if trace.enabled:
            trace.complete(
                "disk", self.kind, self.t0, sim.now, disk=disk.name, bytes=nbytes
            )

    def _charge(self, nbytes: int) -> None:
        # One sequential transfer, as the body's rate paid for it: a seek
        # to the run's start from wherever the head was left is not.
        self.disk.head = self.offset
        self.disk._charge(self.kind, self.offset, nbytes)


class DiskTrain(DiskRun):
    """A packet train's side of its disk
    (:meth:`repro.sim.network.Switch.train`): the run of one block
    replica written ``chunk`` bytes -- a packet -- at a time, each packet
    its own write and, with ``sync``, followed by a cache flush: the
    run's per-chunk overhead.

    Charged packet by packet when it closes: a write per packet (and a
    sync), the bytes, and a seek for each packet written while another
    run shared the disk -- its head move in the round
    (:meth:`Disk.run_rate`).  Busy seconds are the transfer, the syncs
    and those head moves.  Still no latency sample: the packets are not
    simulated one by one.  A train that opens alone finds the head at
    its offset (:meth:`Disk.seek`), so its first packet never seeks.
    """

    __slots__ = ("sync", "mark", "placed", "seeks", "seek_seconds")

    def __init__(self, disk: Disk, offset: int, sync: bool) -> None:
        super().__init__(disk, "write", offset)
        self.sync = sync
        self.overhead = disk.geometry.sync_time if sync else 0.0
        self.mark: float = offset
        self.placed = False
        self.seeks = 0
        self.seek_seconds = 0.0

    def open(
        self,
        nbytes: int,
        chunk: int,
        cut: Callable[[DiskFailedError], None],
        wake: Callable[[], None],
    ) -> Optional[DiskFailedError]:
        self.placed = not self.disk._runs
        return super().open(nbytes, chunk, cut, wake)

    def _packets(self, head: float) -> int:
        """Packets started before the head reached ``head``."""
        return math.ceil((head - self.offset) / self.chunk)

    def settle(self, head: float, seek: float) -> None:
        packets = self._packets(head) - self._packets(self.mark)
        if packets and self.placed:
            packets -= 1
            self.placed = False
        if seek:
            self.seeks += packets
            self.seek_seconds += packets * seek
        self.mark = head

    def _charge(self, nbytes: int) -> None:
        disk = self.disk
        stats = disk.stats
        packets = self._packets(self.offset + nbytes)
        busy = disk.geometry.transfer_time(nbytes) + self.seek_seconds
        stats.writes += packets
        stats.bytes_written += nbytes
        stats.seeks += self.seeks
        stats.seek_seconds += self.seek_seconds
        if self.sync:
            stats.syncs += packets
            busy += packets * self.overhead
        stats.busy_seconds += busy
        disk.head = self.offset + nbytes
