"""Span tracing clocked off simulated time.

Design constraints, in order:

1. **Determinism.**  Events carry only simulated timestamps and a
   tracer-local sequence number.  The tracer never touches the
   simulator's event heap or its tie-breaking sequence counter, so a
   traced run and an untraced run execute the exact same schedule
   (tested bit-for-bit in ``tests/test_tracer.py``).
2. **Near-zero cost when disabled.**  Instrumentation sites follow the
   pattern ``trace = self.sim.trace`` / ``if trace.enabled:`` -- one
   attribute load and one branch on the fast path.  The module-level
   :data:`NULL_TRACER` answers ``enabled`` with a plain class attribute
   ``False`` and has no emission methods: nothing downstream of the
   branch ever runs.
3. **No sim imports.**  ``sim/engine.py`` imports this module; the
   reverse would be a cycle.  Anything that needs cluster types lives in
   :mod:`repro.obs.metrics` instead.

Event model (mirrors the Chrome trace phases we export to):

``complete``
    A span with a start and an end (phase ``"X"``).  Spans in a
    discrete-event simulation interleave freely across processes, so we
    record them as closed intervals rather than nested begin/end pairs.
``instant``
    A point event (phase ``"i"``): a fault injection, a failure
    detection, a solver re-solve.
``count``
    A sampled counter value (phase ``"C"``): journal occupancy, active
    flows.  Renders as a counter track in Perfetto.

Every event also carries a *run* index: one :class:`Tracer` may outlive
several sequential :class:`~repro.sim.engine.Simulator` instances (an
experiment sweeping seeds), and each simulator registers itself on
construction.  The run index becomes the ``pid`` in the Chrome export so
repetitions land on separate tracks.
"""

from __future__ import annotations

from typing import Any, ContextManager, Dict, Iterable, List, Optional, Tuple

from repro.obs.ambient import Slot

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "active_tracer",
    "capture",
]


class TraceEvent:
    """One recorded occurrence; ``dur`` is 0.0 for instants and counts."""

    __slots__ = ("run", "seq", "phase", "category", "name", "ts", "dur", "attrs")

    def __init__(
        self,
        run: int,
        seq: int,
        phase: str,
        category: str,
        name: str,
        ts: float,
        dur: float,
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self.run = run
        self.seq = seq
        self.phase = phase
        self.category = category
        self.name = name
        self.ts = ts
        self.dur = dur
        self.attrs = attrs

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.phase!r}, {self.category}/{self.name}, "
            f"ts={self.ts:.6f}, dur={self.dur:.6f}, run={self.run})"
        )


class Tracer:
    """Collects :class:`TraceEvent` records in memory.

    ``enabled`` is what instrumentation sites branch on before building
    an event's arguments; :class:`NullTracer` answers ``False``.
    """

    enabled: bool = True

    def __init__(self, categories: Optional[Iterable[str]] = None) -> None:
        """``categories`` restricts recording to the named categories.

        A full trace of a prefilled table-2 run is millions of disk and
        journal events; limiting to, say, ``{"recovery", "fault"}`` keeps
        the file Perfetto-sized while preserving the phase breakdown.
        ``None`` records everything.
        """
        self.events: List[TraceEvent] = []
        self._seq = 0
        self._runs: List[str] = []
        self.current_run = 0
        self.categories: Optional[frozenset] = (
            frozenset(categories) if categories is not None else None
        )

    # -- run bookkeeping ------------------------------------------------
    def register_run(self, label: str = "") -> int:
        """Called by each Simulator; returns its run index (Chrome pid)."""
        index = len(self._runs)
        self._runs.append(label or f"run-{index}")
        self.current_run = index
        return index

    @property
    def run_labels(self) -> Tuple[str, ...]:
        return tuple(self._runs)

    # -- emission -------------------------------------------------------
    def complete(self, category: str, name: str, t0: float, t1: float, **attrs: Any) -> None:
        """Record a closed span [t0, t1] in simulated seconds."""
        if self.categories is not None and category not in self.categories:
            return
        self._seq += 1
        self.events.append(
            TraceEvent(
                self.current_run, self._seq, "X", category, name, t0, t1 - t0, attrs or None
            )
        )

    def instant(self, category: str, name: str, ts: float, **attrs: Any) -> None:
        """Record a point event at simulated time ``ts``."""
        if self.categories is not None and category not in self.categories:
            return
        self._seq += 1
        self.events.append(
            TraceEvent(self.current_run, self._seq, "i", category, name, ts, 0.0, attrs or None)
        )

    def count(self, category: str, name: str, ts: float, value: float) -> None:
        """Record a counter sample (Perfetto counter track)."""
        if self.categories is not None and category not in self.categories:
            return
        self._seq += 1
        self.events.append(
            TraceEvent(
                self.current_run, self._seq, "C", category, name, ts, 0.0, {"value": value}
            )
        )

    def __len__(self) -> int:
        return len(self.events)


class NullTracer:
    """Disabled tracer: it records nothing.

    ``enabled`` is a class attribute so the hot-path check costs a
    single attribute load on the type, with no per-call work.  Every
    emission site branches on it first, so the null tracer needs no
    emission methods (``active_tracer`` is typed ``Any`` for mypy).
    """

    enabled = False

    def __len__(self) -> int:
        return 0


#: The process-wide disabled tracer; Simulators default to this.
NULL_TRACER = NullTracer()

_SLOT: Slot[Any] = Slot(NULL_TRACER)


def active_tracer() -> Any:
    """The tracer new Simulators bind to (NULL_TRACER when disabled)."""
    return _SLOT.get()


def capture(tracer: Optional[Tracer] = None) -> ContextManager[Tracer]:
    """``with capture() as tracer:`` -- activate for the block's duration."""
    return _SLOT.capture(tracer if tracer is not None else Tracer())
