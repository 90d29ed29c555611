"""Phase snapshots of quiescent simulated clusters.

Experiments whose tasks share a failure-free ingest (fig9's and fig10's
reads of a DFSIO-written cluster, fig10's TeraGen and WordCount inputs)
simulate it once per parameters and hand every task a restored copy of
the post-ingest cluster; ext-scale hands its write phase's cluster to
its recovery phase the same way.

Correctness model
-----------------
- :func:`capture` pickles the whole cluster facade.  The
  :class:`~repro.sim.engine.Simulator` refuses to pickle unless
  *quiescent* (empty schedule, no live process, no pending failure), so
  a snapshot can only be taken between runs.  Everything else in the
  object graph (disks, switch, layout, RNGs, payload factory) is plain
  picklable state.
- :func:`restore` unpickles a brand-new object graph on every call.
  Restored clusters share nothing, so tasks cannot contaminate each
  other through a cached object.
- :meth:`SnapshotStore.get_or_build` captures on a miss *before*
  returning the built object, so the stored blob is always pristine;
  hits return restored copies.  Cold-built and restored clusters are
  interchangeable: the warm-start differential tests prove restored
  copies produce bitwise-identical results, and :class:`InlineState`
  keeps their wall-clock behaviour identical as well (restored objects
  would otherwise lose CPython's inline attribute storage and run
  15-25% slower).

The store is in-memory and per-process, so the code cannot change under
a key; ``fork``-context pool workers inherit the parent's store,
spawn-context workers start with an empty one, and ext-scale's handoff
crosses the pool boundary as a pickled dependency result.

When a span tracer is active the store is bypassed and builders run
cold: the warmup's spans belong in the trace, and restored simulators
would register fresh trace runs mid-experiment.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict

from repro.obs.tracer import active_tracer


def snapshot_key(tag: str, **params: Any) -> str:
    """Canonical store key: the tag and the sorted parameters."""
    inner = ",".join(f"{name}={params[name]!r}" for name in sorted(params))
    return f"{tag}({inner})"


def capture(obj: Any) -> bytes:
    """Pickle a quiescent cluster (or any picklable object graph).

    Raises :class:`~repro.errors.SimulationError` via the simulator's
    ``__getstate__`` if the object graph contains a non-quiescent
    simulator.
    """
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def restore(blob: bytes) -> Any:
    """Unpickle a snapshot into a brand-new, unshared object graph."""
    return pickle.loads(blob)


class InlineState:
    """Restore pickled attributes with ``setattr``, not ``__dict__.update``.

    CPython 3.11+ stores instance attributes *inline* in the object
    until something materializes its ``__dict__``.  Pickle's default
    ``BUILD`` does exactly that (``inst.__dict__.update(state)``), so a
    restored object pays a slower attribute-access path for the rest of
    its life: a micro-benchmark shows ~2.5x per access, and restored
    clusters ran 15-25% slower than cold-built ones on event-loop-bound
    workloads.  Assigning each attribute on the fresh instance keeps the
    inline layout, making warm-started simulations run at cold-built
    speed.  Every class that appears inside a cluster snapshot inherits
    this mixin.

    ``object.__setattr__`` is used so frozen dataclasses restore the
    same way the default path would (pickle also bypasses ``__init__``
    and any custom ``__setattr__``).  ``__slots__ = ()`` keeps the mixin
    from forcing a ``__dict__`` onto slotted subclasses, and the
    two-tuple ``(dict_state, slots_state)`` form pickle emits for such
    classes is handled explicitly.
    """

    __slots__ = ()

    def __setstate__(self, state: Any) -> None:
        if isinstance(state, tuple):
            dict_state, slots_state = state
        else:
            dict_state, slots_state = state, None
        if dict_state:
            for name, value in dict_state.items():
                object.__setattr__(self, name, value)
        if slots_state:
            for name, value in slots_state.items():
                object.__setattr__(self, name, value)


class SnapshotStore:
    """A keyed, in-memory snapshot cache."""

    def __init__(self) -> None:
        self._memory: Dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        """Return the cluster under ``key``, building it at most once.

        On a miss, runs ``builder``, captures the result for future
        callers, and returns the built object itself -- the capture
        happens before the caller can mutate it, so the stored blob is
        always pristine.  On a hit, returns a freshly restored copy.
        Cold and warm callers are interchangeable because a restored
        cluster is bitwise-indistinguishable from a cold-built one (the
        warm-start differential tests pin this; :class:`InlineState`
        makes it hold for wall-clock behaviour too).
        """
        if active_tracer().enabled:
            return builder()
        blob = self._memory.get(key)
        if blob is not None:
            self.hits += 1
            return restore(blob)
        self.misses += 1
        obj = builder()
        self._memory[key] = capture(obj)
        return obj


#: Process-wide store used by the experiment builders.
GLOBAL_STORE = SnapshotStore()

