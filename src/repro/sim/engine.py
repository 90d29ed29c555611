"""Minimal deterministic discrete-event simulation kernel.

The kernel follows the familiar process-interaction style: a *process* is a
Python generator that ``yield``\\ s :class:`Event` objects; the simulator
resumes the generator when the yielded event fires.  Determinism is a hard
requirement (experiment results must be reproducible bit-for-bit), so ties
in the event schedule are broken by a monotonically increasing sequence
number and no wall-clock or global randomness is consulted anywhere.

Example::

    sim = Simulator()

    def worker(sim, results):
        yield sim.timeout(1.5)
        results.append(sim.now)

    results = []
    sim.process(worker(sim, results))
    sim.run()
    assert results == [1.5]

Scheduler
---------
Pending entries live in two containers, dispatched in exact global
``(time, seq)`` order:

- the *now-bucket*: a FIFO of zero-delay entries for the current instant
  (event triggers, process bootstraps, deferred callbacks) -- the bulk of
  the schedule;
- the *heap*: a binary heap of every future entry.

A heap entry that falls due at the current instant is dispatched before
the bucket front exactly when its sequence number is smaller, so the
merge reproduces the order of one heap holding everything.  That single
heap is test-side code: ``tests/oracles.py`` subclasses the simulator
so zero-delay entries are heap-pushed too, and
``tests/test_scheduler_differential.py`` requires bitwise-identical
dispatch.
"""

from __future__ import annotations

import weakref
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.simprofile import SimProfiler, active_profiler
from repro.obs.timeseries import Sampler, active_sampler
from repro.obs.tracer import active_tracer

# A process body: a generator that yields Events and may return a value.
ProcessBody = Generator["Event", Any, Any]

#: Sentinel stored in ``Event._callbacks`` once the event has dispatched.
_DISPATCHED = object()


class _Deferred:
    """A bare callback on the schedule.

    The schedule only requires entries to expose ``_dispatch``; a
    one-field object is much cheaper than a full :class:`Event` for the
    internal "run this soon" pattern (process bootstrap, late callbacks,
    interrupts), which fires once per process and never carries a value.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn

    def _dispatch(self) -> None:
        self.fn()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and then delivers its value (or raises
    its exception) in every process that yielded it.  Callbacks attached
    after triggering run on the next dispatch.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_exception", "triggered", "_scheduled")

    #: True when a waiting process may attach itself by writing
    #: ``_callbacks`` directly (the inlined ``_wait_for`` fast path).
    #: :class:`Process` overrides this: its ``add_callback`` also records
    #: that the completion was observed.
    _inline_wait = True

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        # None (no waiter yet) | a single callable | a list of callables |
        # _DISPATCHED.  Most events have exactly one waiter, so the common
        # case allocates no list.
        self._callbacks: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self.triggered = False
        self._scheduled = False

    @property
    def value(self) -> Any:
        """The success value; raises if the event failed or is pending."""
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value``.

        The ``_trigger`` body is inlined: triggering is the hottest
        scheduling site (every completion lands here).
        """
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self._value = value
        if not self._scheduled:
            self._scheduled = True
            sim = self.sim
            sim._seq += 1
            sim._now_bucket.append((sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(None, exception)
        return self

    def _trigger(self, value: Any, exception: Optional[BaseException]) -> None:
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self._value = value
        self._exception = exception
        # Inlined zero-delay _schedule_event (same body as succeed()).
        if not self._scheduled:
            self._scheduled = True
            sim = self.sim
            sim._seq += 1
            sim._now_bucket.append((sim._seq, self))

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event has been dispatched."""
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = callback
        elif callbacks is _DISPATCHED:
            # Already dispatched: schedule an immediate deferred call so
            # the callback still runs inside the simulation loop.
            self.sim._schedule_callback(lambda: callback(self))
        elif isinstance(callbacks, list):
            callbacks.append(callback)
        else:
            self._callbacks = [callbacks, callback]

    def _abandon(self, callback: Callable[["Event"], None]) -> None:
        """The waiter ``callback`` stopped waiting (its process was
        interrupted): the event must not resume it later."""
        callbacks = self._callbacks
        if callbacks is callback:
            self._callbacks = None
        elif isinstance(callbacks, list) and callback in callbacks:
            callbacks.remove(callback)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, _DISPATCHED
        if callbacks is None:
            return
        if isinstance(callbacks, list):
            for callback in callbacks:
                callback(self)
        else:
            callbacks(self)


class Timeout(Event):
    """An event that fires automatically after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        super().__init__(sim)
        self.delay = delay
        self.triggered = True
        self._value = value
        sim._schedule_event(self, delay=delay)


class Process(Event):
    """A running generator.  As an Event it fires when the body returns."""

    __slots__ = ("body", "name", "_waiting_on", "_had_waiters", "_trace_t0",
                 "_send", "_bthrow", "_rcb")

    #: Waiters must go through add_callback so _had_waiters is recorded.
    _inline_wait = False

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = "") -> None:
        # Inlined Event.__init__: process churn (one per simulated I/O in
        # the recovery loops) makes this constructor hot.
        self.sim = sim
        self._callbacks = None
        self._value = None
        self._exception = None
        self.triggered = False
        self._scheduled = False
        self.body = body
        self.name = name or getattr(body, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._had_waiters = False
        # Prebound body resumption and wake callback: every resume saves
        # a method-wrapper allocation and an attribute chain.
        self._send = body.send
        self._bthrow = body.throw
        self._rcb: Callable[[Event], None] = self._resume
        if sim.trace.enabled:
            self._trace_t0 = sim.now
        # Kick off the body on the next step; inlined _schedule_callback
        # (no bootstrap Event allocation).
        sim._seq += 1
        sim._now_bucket.append((sim._seq, _Deferred(self._start)))
        sim._live_processes += 1

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        # Remember that somebody waits on this process, so an unhandled
        # crash inside the body is considered observed (the waiter gets the
        # exception re-thrown) and run() need not re-raise it.
        self._had_waiters = True
        super().add_callback(callback)

    def observed(self) -> bool:
        """True if some waiter received this process's completion."""
        return self._had_waiters

    def interrupt(self, reason: str = "interrupted") -> None:
        """Throw :class:`ProcessInterrupt` into the body at its wait point."""
        if self.triggered:
            return
        self.sim._schedule_callback(lambda: self._throw(ProcessInterrupt(reason)))

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        # The wait is abandoned: a resource request withdraws from its
        # queue, or hands back the grant it got but never delivered.
        waiting, self._waiting_on = self._waiting_on, None
        if waiting is not None:
            waiting._abandon(self._rcb)
        try:
            target = self._bthrow(exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
        except BaseException as err:  # noqa: BLE001 - propagate into the event
            self._finish_fail(err)
        else:
            # Inlined _wait_for fast path (see _resume).
            try:
                if target._callbacks is None and target._inline_wait:
                    self._waiting_on = target
                    target._callbacks = self._rcb
                    return
            except AttributeError:
                pass
            self._wait_for(target)

    def _start(self) -> None:
        """First resume of the body (nothing to send yet)."""
        if self.triggered:
            return
        try:
            target = self._send(None)
        except StopIteration as stop:
            self._finish_ok(stop.value)
        except BaseException as err:  # noqa: BLE001 - propagate into the event
            self._finish_fail(err)
        else:
            try:
                if target._callbacks is None and target._inline_wait:
                    self._waiting_on = target
                    target._callbacks = self._rcb
                    return
            except AttributeError:
                pass
            self._wait_for(target)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return
        try:
            if event._exception is not None:
                target = self._bthrow(event._exception)
            else:
                target = self._send(event._value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
        except BaseException as err:  # noqa: BLE001 - propagate into the event
            self._finish_fail(err)
        else:
            # Inlined _wait_for fast path: the overwhelmingly common
            # target is a fresh event with no waiter yet, where waiting
            # is a single slot write.  Process targets opt out via
            # _inline_wait (their add_callback records observation) and
            # non-events lack the slots entirely (AttributeError).
            try:
                if target._callbacks is None and target._inline_wait:
                    self._waiting_on = target
                    target._callbacks = self._rcb
                    return
            except AttributeError:
                pass
            self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._finish_fail(
                SimulationError(f"process {self.name!r} yielded non-event {target!r}")
            )
            return
        self._waiting_on = target
        target.add_callback(self._rcb)

    def _finish_ok(self, value: Any) -> None:
        # The body is done: drop its prebound resumers (``_rcb`` is a
        # bound method of this process, so keeping it makes every
        # finished process a reference cycle).  Every resume path tests
        # ``triggered`` before reaching them.
        del self._send, self._bthrow, self._rcb
        sim = self.sim
        sim._live_processes -= 1
        trace = sim.trace
        if trace.enabled:
            trace.complete(
                "engine", "process", getattr(self, "_trace_t0", sim.now), sim.now,
                proc=self.name,
            )
        self.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        del self._send, self._bthrow, self._rcb  # see _finish_ok
        sim = self.sim
        sim._live_processes -= 1
        trace = sim.trace
        if trace.enabled:
            trace.complete(
                "engine", "process", getattr(self, "_trace_t0", sim.now), sim.now,
                proc=self.name, error=type(exc).__name__,
            )
        # Remember the failure; if nobody waits on this process the
        # simulator surfaces it at the end of the run instead of silently
        # swallowing it.
        self.sim._note_process_failure(self, exc)
        self.triggered = True
        self._exception = exc
        self.sim._schedule_event(self)


class ProcessInterrupt(SimulationError):
    """Raised inside a process body by :meth:`Process.interrupt`."""


class AllOf(Event):
    """Fires when all child events have fired; value is their value list.

    Fails fast with the first child failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        # Inlined Event.__init__ (one AllOf per chunk iteration in the
        # recovery loops).
        self.sim = sim
        self._callbacks = None
        self._value = None
        self._exception = None
        self.triggered = False
        self._scheduled = False
        children = self._children = list(events)
        self._remaining = len(children)
        if self._remaining == 0:
            self.succeed([])
            return
        on_child = self._on_child
        for child in children:
            # Inlined _wait_for fast path (see Process._resume): a fresh
            # waiter-less event takes a slot write; Process children opt
            # out so their add_callback records observation.
            if child._callbacks is None and child._inline_wait:
                child._callbacks = on_child
            else:
                child.add_callback(on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child._exception is not None:
            self.fail(child._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class Simulator:
    """The event loop: a now-bucket and a heap merged in (time, seq) order.

    Zero-delay work (event triggers, process bootstraps, deferred
    callbacks) dominates the schedule, so it bypasses the heap entirely:
    a FIFO *now-bucket* holds entries for the current instant.  Timed
    entries go to the heap.  The run loop merges the two by sequence
    number, which reproduces the exact (time, seq) dispatch order of a
    single heap bit-for-bit; see the module docstring.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.bind_observers()
        # Entries are (time, seq, Event-or-_Deferred); seq is unique, so
        # the third element is never compared.
        self._heap: List[Tuple[float, int, Any]] = []
        # Zero-delay entries for the current instant: (seq, entry) pairs,
        # appended in seq order (seq is globally monotone).
        self._now_bucket: Deque[Tuple[int, Any]] = deque()
        self._seq = 0
        self._live_processes = 0
        self._failed: List[Tuple[Process, BaseException]] = []
        # One-shot hooks run when the cascade at the current instant has
        # drained, before simulated time advances (see add_flush_hook).
        self._flush_hooks: List[Callable[[], None]] = []
        # The grant ledger: primitive (a Resource or a ByteRangeLock) ->
        # grants it has out.  An entry leaves at zero, so a run that
        # released everything holds nothing here (see run()).
        self._grants: Dict[Any, int] = {}

    def bind_observers(self) -> None:
        """Bind whatever observers are ambient right now (see
        :mod:`repro.obs.ambient`): the tracer (``NULL_TRACER`` when none
        is active; instrumentation sites branch on ``trace.enabled``),
        the profiler and the sampler (``None`` when off; ``run()`` tests
        them once per call, never per event).

        Observers only read.  Emitting trace events, attributing
        dispatches and sampling -- ``run()`` drains to each sample
        instant via the ordinary ``until`` mechanism -- never touch the
        schedule or the sequence counter, so observed and bare runs
        execute identical schedules.

        Construction and snapshot restore bind; between two ``run()``
        calls a caller may bind again, so the next phase of a live
        simulation reports to the observers ambient now (a sampler
        opens a new run at the current instant) without a pickle.

        The sampler and the profiler are held weakly: each keeps the
        components it reads alive (the watched cluster, the auditor's
        hook, the flush-hook owners), so a strong link back would make
        every observed cluster a reference cycle.  Their owner is whoever
        captured them; one nobody holds any more has no reader left.
        """
        self.trace = active_tracer()
        if self.trace.enabled:
            self.trace.register_run()
        profile = active_profiler()
        self._profile_ref = None if profile is None else weakref.ref(profile)
        sampler = active_sampler()
        self._sampler_ref = None if sampler is None else weakref.ref(sampler)
        if sampler is not None:
            sampler.register_run(self.now)

    @property
    def _profile(self) -> Optional[SimProfiler]:
        return None if self._profile_ref is None else self._profile_ref()

    @property
    def _sampler(self) -> Optional[Sampler]:
        return None if self._sampler_ref is None else self._sampler_ref()

    # ------------------------------------------------------------------
    # Snapshot support.
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Pickle a *quiescent* simulator: clock and seq counter only.

        Live generators are unpicklable, so snapshots are only legal when
        no work is scheduled and no process is mid-body.  The seq counter
        travels with the snapshot so a restored run consumes the same
        tie-break sequence a cold run would have at this point.
        """
        if (
            self._heap
            or self._now_bucket
            or self._flush_hooks
            or self._live_processes
            or self._failed
            or self._grants
        ):
            raise SimulationError(
                "simulator snapshot requires quiescence: empty schedule, "
                "no live processes, no pending failures, no held grants"
            )
        return {"now": self.now, "seq": self._seq}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.now = float(state["now"])
        # Observers are process-local and never snapshotted; rebind to
        # whatever is ambient in the restoring process.
        self.bind_observers()
        self._heap = []
        self._now_bucket = deque()
        self._seq = int(state["seq"])
        self._live_processes = 0
        self._failed = []
        self._flush_hooks = []
        self._grants = {}

    # ------------------------------------------------------------------
    # Event construction helpers.
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A fresh delay event (flattened hot-path constructor)."""
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        # Inlined Timeout.__init__ + _schedule_event: direct slot writes
        # skip two constructor frames on one of the hottest call sites.
        event = Timeout.__new__(Timeout)
        event.sim = self
        event._callbacks = None
        event._value = value
        event._exception = None
        event.triggered = True
        event._scheduled = True
        event.delay = delay
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._now_bucket.append((seq, event))
        else:
            heappush(self._heap, (self.now + delay, seq, event))
        return event

    def process(self, body: ProcessBody, name: str = "") -> Process:
        return Process(self, body, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the main loop.
    # ------------------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._now_bucket.append((seq, event))
        else:
            heappush(self._heap, (self.now + delay, seq, event))

    def _schedule_callback(self, fn: Callable[[], None]) -> None:
        """Queue a bare callback at the current time (fast path).

        Replaces the allocate-Event-and-succeed idiom for internal
        scheduling; consumes one sequence number, exactly like the event
        it replaces, so tie-breaking order is unchanged.
        """
        self._seq += 1
        self._now_bucket.append((self._seq, _Deferred(fn)))

    def add_flush_hook(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` once the cascade at the current instant drains.

        The hook fires exactly once, after every already-scheduled entry
        at the current simulated time has dispatched and before time
        advances (or the run ends).  Subsystems that accumulate
        same-timestamp work -- e.g. the switch batching flow arrivals into
        one fair-share solve -- register a hook per instant instead of
        recomputing per arrival.  Hooks may schedule new work at the
        current instant and may re-register for later instants.
        """
        self._flush_hooks.append(fn)

    def _run_flush_hooks(self) -> None:
        hooks = self._flush_hooks
        while hooks:
            batch = hooks[:]
            del hooks[: len(batch)]
            for fn in batch:
                fn()

    def _note_process_failure(self, process: Process, exc: BaseException) -> None:
        self._failed.append((process, exc))

    def _grant(self, primitive: Any) -> None:
        """Ledger: ``primitive`` gave out one more grant."""
        grants = self._grants
        grants[primitive] = grants.get(primitive, 0) + 1

    def _ungrant(self, primitive: Any) -> None:
        """Ledger: one of ``primitive``'s grants came back."""
        grants = self._grants
        count = grants[primitive] - 1
        if count:
            grants[primitive] = count
        else:
            del grants[primitive]

    def _held_names(self) -> str:
        """The ledger for an error message: ``name xN`` per primitive."""
        return ", ".join(
            f"{primitive.name or type(primitive).__name__} x{count}"
            for primitive, count in self._grants.items()
        )

    def run(self, until: Optional[float] = None) -> float:
        """Run until the schedule drains or simulated time reaches ``until``.

        Returns the final simulated time.  Raises the first unobserved
        process failure, raises :class:`DeadlockError` if processes
        remain blocked after the schedule drains, and refuses a quiescent
        end -- schedule drained, no process live -- that still holds a
        grant: nothing is left that could release it.
        """
        from repro.errors import DeadlockError

        sampler, profile = self._sampler, self._profile
        if sampler is None:
            self._drain(until, profile)
        else:
            self._drain_sampled(until, sampler, profile)
        self._raise_orphan_failures()
        if self._heap or self._now_bucket:
            return self.now  # stopped at ``until``
        if self._live_processes:
            if until is None:
                held = f"; holding {self._held_names()}" if self._grants else ""
                raise DeadlockError(
                    f"{self._live_processes} process(es) blocked forever "
                    f"at t={self.now}{held}"
                )
        elif self._grants:
            raise SimulationError(
                f"run ended at t={self.now} still holding {self._held_names()}: "
                "no process is left to release them"
            )
        return self.now

    def _drain(self, until: Optional[float], profile: Optional[SimProfiler]) -> None:
        """The simulation's innermost hot path: the one dispatch loop.

        Inlines entry selection and event dispatch (the
        ``Event._dispatch`` body) with the bucket and the heap bound
        locally.  The two are merged by (time, seq), reproducing
        single-heap dispatch order exactly.  Flush hooks run once the
        current instant has drained, before time advances or the run
        ends; a heap entry beyond ``until`` stops the loop there.

        With a profiler, each dispatch is classified before it runs and
        its wall and simulated time are recorded after; selection is the
        same code, so profiled and bare runs execute bitwise-identical
        schedules (tested in ``tests/test_profile.py``).
        """
        heap = self._heap
        bucket = self._now_bucket
        popleft = bucket.popleft
        flush_hooks = self._flush_hooks
        now = last = self.now
        if profile is not None:
            clock, record, bucket_for = profile.clock, profile.record, profile.bucket_for
        while True:
            if bucket:
                # Same instant: a heap entry already due at `now`
                # predates the bucket front iff its seq is smaller.
                if heap and heap[0][0] <= now and heap[0][1] < bucket[0][0]:
                    event = heappop(heap)[2]
                else:
                    event = popleft()[1]
            else:
                if flush_hooks and (not heap or heap[0][0] > now):
                    # The instant has drained: boundary hooks run before
                    # time advances (or the run ends).
                    if profile is not None:
                        profile.watch_hooks(flush_hooks)
                    self._run_flush_hooks()
                    continue
                if not heap:
                    break
                when = heap[0][0]
                if when < now:
                    raise SimulationError("time went backwards")
                if until is not None and when > until:
                    self.now = until
                    return
                event = heappop(heap)[2]
                now = self.now = when
            if profile is None:
                # Inlined Event._dispatch.
                if event.__class__ is _Deferred:
                    event.fn()
                else:
                    cb = event._callbacks
                    event._callbacks = _DISPATCHED
                    if cb is not None:
                        if cb.__class__ is list:
                            for callback in cb:
                                callback(event)
                        else:
                            cb(event)
            else:
                key = bucket_for(event)
                t0 = clock()
                event._dispatch()
                record(key, now - last, clock() - t0)
                last = now

    def _drain_sampled(
        self, until: Optional[float], sampler: Sampler, profile: Optional[SimProfiler]
    ) -> None:
        """The run loop split at the sampler's tick grid.

        Each chunk is an ordinary :meth:`_drain` to the next sample
        instant -- the same ``until`` mechanism callers use -- so the
        dispatched schedule is bitwise-identical to an unsampled run: no
        event scheduled, no sequence number consumed.  A sample is taken
        only when the chunk actually reached its tick (work remains
        beyond it); a drained schedule ends the run without trailing
        empty ticks.
        """
        while True:
            due = sampler.next_due()
            target = due if until is None or due <= until else until
            self._drain(target, profile)
            if not (self._now_bucket or self._heap):
                return
            if target != due:
                # The caller's horizon precedes the next tick.
                return
            sampler.sample(self)

    def run_process(self, body: ProcessBody, name: str = "") -> Any:
        """Convenience: spawn ``body``, run to completion, return its value."""
        proc = self.process(body, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(f"process {proc.name!r} did not finish")
        return proc.value

    def _raise_orphan_failures(self) -> None:
        """Re-raise the first process crash that no waiter ever saw.

        That crash keeps its full traceback.  Every other failure of the
        run has been delivered to its waiters by now and keeps its type
        and message only: its traceback holds the engine frame that
        caught the crash, whose ``self`` is the failed process (a cycle
        through ``_exception``), and whose caller chain pins every frame
        up to ``run()``'s caller.
        """
        failed, self._failed = self._failed, []
        orphan = next((exc for process, exc in failed if not process.observed()), None)
        for _process, exc in failed:
            if exc is not orphan:
                exc.__traceback__ = None
        if orphan is not None:
            raise orphan
