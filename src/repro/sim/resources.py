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

Every grant is entered in the simulator's grant ledger while it is out
(``Simulator._grant`` / ``_ungrant``; a FIFO hand-off moves a grant
without touching it), so a run that ends holding one is refused.  A
process interrupted while it waits on a request withdraws it: queued, it
leaves the queue; granted but not yet delivered, the grant goes back.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

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
        self._queue: Deque[_Request] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def request(self) -> Event:
        """Return an event that fires when a unit of the resource is granted.

        The event's value is an opaque grant token to pass to
        :meth:`release`.  The constructor is flattened (direct slot
        writes, no constructor frames): every simulated I/O passes
        through here once.
        """
        sim = self.sim
        event = _Request.__new__(_Request)
        event.sim = sim
        event._callbacks = None
        event._value = None
        event._exception = None
        event.triggered = False
        event._scheduled = False
        event.owner = self
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            sim._grant(self)
            event.succeed(_Grant(self))
        else:
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
            self.sim._grant(self)
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
            # so _in_use and the ledger are untouched and the token stays
            # live.
            self._queue.popleft().succeed(grant)
        else:
            grant.released = True
            self._in_use -= 1
            self.sim._ungrant(self)

    def _withdraw(self, request: "_Request") -> None:
        """An interrupted waiter gives ``request`` up."""
        if request.triggered:
            self.release(request._value)
        else:
            self._queue.remove(request)


class _Request(Event):
    """A request's event: ``owner`` (the primitive it waits on) takes it
    back when its waiter is interrupted (:meth:`Process.interrupt`)."""

    __slots__ = ("owner",)

    owner: Any  # a Resource or a ByteRangeLock

    def _abandon(self, callback: Callable[[Event], None]) -> None:
        super()._abandon(callback)
        self.owner._withdraw(self)


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
        self._waiters: Deque[Tuple[int, int, _Request]] = deque()

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
        event = _Request(self.sim)
        event.owner = self
        if not self._conflicts(start, end) and not self._blocked_by_waiter(start, end):
            self._held.append((start, end))
            self.sim._grant(self)
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
        self.sim._ungrant(self)
        self._wake_waiters()

    def _withdraw(self, request: _Request) -> None:
        """An interrupted waiter gives ``request`` up."""
        if request.triggered:
            self.release(request._value)
            return
        for index, (_start, _end, event) in enumerate(self._waiters):
            if event is request:
                del self._waiters[index]
                break
        self._wake_waiters()  # it may have been all that blocked a later one

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
                    self.sim._grant(self)
                    event.succeed((start, end))
                    granted_any = True
                    break
                earlier.append((start, end))
