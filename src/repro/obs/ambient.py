"""The ambient slot: how an observer reaches simulators it never sees built.

Experiments construct their :class:`~repro.sim.engine.Simulator` deep
inside cluster factories, so an observer (tracer, profiler, sampler,
auditor) cannot be passed down as an argument without threading it
through every constructor in between.  Instead each observer module
owns one :class:`Slot`; ``with module.capture(...)`` occupies it for a
block, and whoever needs the observer inside the block asks the slot.
A Simulator asks once, at construction (and again when restored from a
snapshot), and keeps what it found: one built outside the block never
sees the observer, one built inside keeps it after the block ends -- the
sampler and the profiler for as long as their owner still holds them
(they hold what they read, so the simulator holds them weakly).

This is the only ambient mechanism under ``src/repro/`` (pinned by
``tests/test_lint_tree.py::test_ambient_slot_inventory``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generic, Iterator, Optional, TypeVar

__all__ = ["Slot"]

T = TypeVar("T")


class Slot(Generic[T]):
    """One process-wide observer binding; ``empty`` is what :meth:`get`
    answers outside every :meth:`capture` block."""

    __slots__ = ("_occupant",)

    def __init__(self, empty: Optional[T] = None) -> None:
        self._occupant = empty

    def get(self) -> Optional[T]:
        return self._occupant

    @contextmanager
    def capture(self, occupant: T) -> Iterator[T]:
        """Install ``occupant`` for the block, then put back whoever was
        there before -- also when the block raises, so captures nest."""
        previous = self._occupant
        self._occupant = occupant
        try:
            yield occupant
        finally:
            self._occupant = previous
