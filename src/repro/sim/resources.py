"""Synchronization primitives for simulated processes.

Three primitives cover every need in the reproduction:

- :class:`Resource` -- a counted FIFO resource (capacity ``c`` grants at a
  time); models devices that serialize work, like a disk head or a bounded
  thread pool.
- :class:`Lock` -- a ``Resource`` with capacity one plus a context-manager
  style helper.
- :class:`ByteRangeLock` -- grants exclusive access to byte ranges and
  allows disjoint ranges to proceed in parallel.  This models the paper's
  reconstruction locking comparison (Table 2): locking the *entire*
  superchunk serializes the XOR work of recovery threads, while a
  byte-range lock lets threads working on different file regions overlap.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator
from repro.sim.snapshot import InlineState


class Resource(InlineState):
    """A counted FIFO resource.

    Usage from a process body::

        grant = yield resource.request()
        try:
            ...
        finally:
            resource.release(grant)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: Deque[Event] = deque()
        # Accounting for utilization reports.
        self.total_waits = 0
        self.total_grants = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> Event:
        """Return an event that fires when a unit of the resource is granted.

        The event's value is an opaque grant token to pass to
        :meth:`release`.  The construct-and-succeed path is flattened
        (direct slot writes, no constructor or trigger frames): every
        simulated I/O passes through here once.
        """
        sim = self.sim
        event = Event.__new__(Event)
        event.sim = sim
        event._callbacks = None
        event._exception = None
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            self.total_grants += 1
            # Inlined event.succeed(_Grant(self)).
            event._value = _Grant(self)
            event.triggered = True
            event._scheduled = True
            sim._seq += 1
            sim._now_bucket.append((sim._seq, event))
        else:
            event._value = None
            event.triggered = False
            event._scheduled = False
            self.total_waits += 1
            self._queue.append(event)
        return event

    def try_acquire(self) -> Optional["_Grant"]:
        """Take a unit right now, or return None: no event, no waiting.

        Succeeds exactly when :meth:`request` would have granted at once
        (a free unit and nobody queued), so FIFO order is never jumped.
        The caller owes the grant to :meth:`release` like any other.
        """
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            self.total_grants += 1
            return _Grant(self)
        return None

    def release(self, grant: "_Grant") -> None:
        if grant.resource is not self:
            raise SimulationError("grant released to the wrong resource")
        if grant.released:
            raise SimulationError("grant released twice")
        if self._queue:
            # O(1) FIFO handoff: the released token passes straight to the
            # head waiter with no allocation.  The unit never goes idle,
            # so _in_use is untouched and the token stays live.  Inlined
            # waiter.succeed(grant): queued events are request()-private
            # and still pending, so the triggered/scheduled checks are
            # statically true.
            waiter = self._queue.popleft()
            self.total_grants += 1
            waiter._value = grant
            waiter.triggered = True
            waiter._scheduled = True
            sim = waiter.sim
            sim._seq += 1
            sim._now_bucket.append((sim._seq, waiter))
        else:
            grant.released = True
            self._in_use -= 1


class _Grant:
    """Opaque token representing one granted unit of a :class:`Resource`."""

    __slots__ = ("resource", "released")

    def __init__(self, resource: Resource) -> None:
        self.resource = resource
        self.released = False


class Lock(Resource):
    """A mutual-exclusion lock (a capacity-one :class:`Resource`)."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        super().__init__(sim, capacity=1, name=name)

    def locked(self) -> bool:
        return self._in_use >= self.capacity


class ByteRangeLock(InlineState):
    """Exclusive locking over half-open byte ranges ``[start, end)``.

    Requests for overlapping ranges are granted in FIFO order; requests for
    disjoint ranges proceed concurrently.  This is deliberately simple
    (linear scan of held ranges) -- the recovery path holds at most a few
    dozen ranges at a time.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._held: List[Tuple[int, int]] = []
        self._waiters: Deque[Tuple[int, int, Event]] = deque()

    @staticmethod
    def _overlaps(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
        return a_start < b_end and b_start < a_end

    def _conflicts(self, start: int, end: int) -> bool:
        return any(
            self._overlaps(start, end, h_start, h_end) for h_start, h_end in self._held
        )

    def acquire(self, start: int, end: int) -> Event:
        """Return an event granting exclusive access to ``[start, end)``."""
        if end <= start:
            raise ValueError(f"empty byte range [{start}, {end})")
        event = self.sim.event()
        if not self._conflicts(start, end) and not self._blocked_by_waiter(start, end):
            self._held.append((start, end))
            event.succeed((start, end))
        else:
            self._waiters.append((start, end, event))
        return event

    def _blocked_by_waiter(self, start: int, end: int) -> bool:
        # FIFO fairness: a new request must queue behind any earlier waiter
        # it overlaps, otherwise a stream of small requests could starve a
        # wide one.
        return any(
            self._overlaps(start, end, w_start, w_end)
            for w_start, w_end, _ev in self._waiters
        )

    def release(self, grant: Tuple[int, int]) -> None:
        try:
            self._held.remove(grant)
        except ValueError:
            raise SimulationError(f"byte range {grant} released but not held") from None
        self._wake_waiters()

    def _wake_waiters(self) -> None:
        # Grant waiters in FIFO order, skipping over (but not past) blocked
        # ones: a waiter may only be granted if it conflicts with neither
        # held ranges nor *earlier* still-queued waiters.
        granted_any = True
        while granted_any:
            granted_any = False
            earlier: List[Tuple[int, int]] = []
            for index, (start, end, event) in enumerate(self._waiters):
                blocked = self._conflicts(start, end) or any(
                    self._overlaps(start, end, e_start, e_end)
                    for e_start, e_end in earlier
                )
                if not blocked:
                    del self._waiters[index]
                    self._held.append((start, end))
                    event.succeed((start, end))
                    granted_any = True
                    break
                earlier.append((start, end))

    @property
    def queue_length(self) -> int:
        return len(self._waiters)


def with_resource(resource: Resource, body: Generator) -> Generator:
    """Process helper: run generator ``body`` while holding ``resource``.

    Usage: ``result = yield from with_resource(disk_lock, do_io())``.
    """
    grant = yield resource.request()
    try:
        result = yield from body
    finally:
        resource.release(grant)
    return result
