"""Deterministic hot-path profiler for the simulation event loop.

Answers "where do the events, the simulated time, and the wall-clock
time go?" for any simulated run, attributed to *process/callsite
buckets*: the code object a dispatched entry resumes (a process body's
generator frame, a bound callback's method, a bare deferred function),
classified under the span categories registered in
:mod:`repro.obs.taxonomy`.

Design constraints, mirroring :mod:`repro.obs.tracer`:

1. **Determinism.**  Attribution never touches the simulator's schedule
   or its tie-breaking sequence counter, so a profiled run executes the
   exact same schedule as an unprofiled one (tested bit-for-bit in
   ``tests/test_profile.py``).  Event counts and simulated-time totals
   are therefore exactly reproducible; wall-clock samples are
   measurements of the host and naturally vary between runs, but their
   bucket keys do not.
2. **One branch when disabled.**  The engine consults
   :func:`active_profiler` once per ``run()`` call; its one drain loop
   then tests ``profile is None`` once per dispatch and runs the
   inlined dispatch when no profiler is active.
3. **No sim imports.**  ``sim/engine.py`` imports this module; the
   reverse would be a cycle, so classification duck-types dispatched
   entries (``_callbacks`` / ``fn`` / ``body``) instead of naming
   engine classes.

The determinism checker's ``RDP001`` skips this module: a wall-clock
profiler exists to read the host clock.
"""

from __future__ import annotations

import time
from math import fsum
from types import CodeType
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from repro.obs.ambient import Slot
from repro.obs.taxonomy import is_registered

__all__ = [
    "BucketStats",
    "SimProfiler",
    "active_profiler",
    "capture",
    "classify_code",
]

#: Bucket key: (taxonomy category, "module:qualname" callsite label).
BucketKey = Tuple[str, str]

#: ``sim/`` modules whose callsites deserve their own category.
_SIM_MODULE_CATEGORIES = {
    "disk.py": "disk",
    "network.py": "net",
}

#: ``core/`` modules mapped onto the taxonomy of their emission sites.
_CORE_MODULE_CATEGORIES = {
    "client.py": "hdfs",
    "journal.py": "journal",
    "recovery.py": "recovery",
    "monitor.py": "recovery",
    "lstor.py": "disk",
}


def classify_code(code: CodeType) -> BucketKey:
    """Map a code object to its (category, callsite-label) bucket.

    The category comes from the defining module's place in the tree --
    the same layer boundaries the trace taxonomy documents -- and the
    label is ``module:qualname`` so two callsites in one file stay
    distinct.  Unknown locations fall back to the ``engine`` category
    rather than inventing unregistered ones.
    """
    filename = code.co_filename.replace("\\", "/")
    parts = filename.split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        rel = parts[index + 1:]
    else:
        rel = parts[-1:]
    category = "engine"
    if rel:
        leaf = rel[-1]
        if rel[0] == "sim":
            category = _SIM_MODULE_CATEGORIES.get(leaf, "engine")
        elif rel[0] == "core":
            category = _CORE_MODULE_CATEGORIES.get(leaf, "engine")
        elif rel[0] == "hdfs":
            category = "dn" if leaf == "datanode.py" else "hdfs"
        elif rel[0] == "workloads":
            category = "workload"
        elif rel[0] == "analysis":
            category = "durability"
        elif rel[0] == "tools":
            category = "bench"
        elif leaf == "faults.py":
            category = "fault"
    if not is_registered(category):  # pragma: no cover - registry guards this
        category = "engine"
    module = rel[-1][:-3] if rel and rel[-1].endswith(".py") else "?"
    qualname = getattr(code, "co_qualname", code.co_name)
    return category, f"{module}:{qualname}"


class BucketStats:
    """Accumulated attribution for one (category, callsite) bucket."""

    __slots__ = ("category", "callsite", "events", "sim_seconds", "wall_seconds")

    def __init__(self, category: str, callsite: str) -> None:
        self.category = category
        self.callsite = callsite
        self.events = 0
        self.sim_seconds = 0.0
        self.wall_seconds = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "category": self.category,
            "callsite": self.callsite,
            "events": self.events,
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
        }


class SimProfiler:
    """Collects per-bucket dispatch counts, simulated time and wall time.

    One profiler may observe several sequential simulators (an
    experiment sweeping seeds); buckets accumulate across all of them.
    """

    #: The wall clock used around each dispatch; engine code calls this
    #: through the profiler so the clock read stays inside this module.
    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.buckets: Dict[BucketKey, BucketStats] = {}
        self._code_cache: Dict[CodeType, BucketKey] = {}
        #: Components seen registering timestamp-boundary hooks, by id:
        #: the profiled run's switches, whose exact work counters the
        #: report prints beside the wall shares.
        self.hook_owners: Dict[int, Any] = {}

    # -- attribution ----------------------------------------------------
    def bucket_for(self, entry: Any) -> BucketKey:
        """The bucket a schedule entry belongs to, read *before* dispatch.

        The consumer -- the callback (or first of several) the dispatch
        will run -- identifies the callsite better than the event object
        itself: a Timeout is anonymous, but the process body it resumes
        is exactly the code that asked for the delay.
        """
        callbacks = getattr(entry, "_callbacks", None)
        if callbacks is None:
            target = getattr(entry, "fn", None)
            if target is None:
                # A triggered event nobody waits on (fire-and-forget).
                return ("engine", f"engine:{type(entry).__name__}.orphan")
        elif type(callbacks) is list:
            target = callbacks[0] if callbacks else entry
        else:
            target = callbacks
        func = getattr(target, "__func__", None)
        if func is not None:
            # Bound method: a process resume attributes to the process
            # *body* (the real callsite); other methods to themselves.
            body = getattr(target.__self__, "body", None)
            code = getattr(body, "gi_code", None)
            if code is None:
                code = func.__code__
        else:
            code = getattr(target, "__code__", None)
            if code is None:
                return ("engine", f"engine:{type(target).__name__}")
        key = self._code_cache.get(code)
        if key is None:
            key = classify_code(code)
            self._code_cache[code] = key
        return key

    def watch_hooks(self, hooks: List[Any]) -> None:
        """Remember who owns the boundary hooks about to run.

        Duck-typed like :meth:`bucket_for` (no sim imports): a bound
        method's ``__self__`` is the component.  Kept alive so its
        counters can be read once the run is over.
        """
        for fn in hooks:
            owner = getattr(fn, "__self__", None)
            if owner is not None:
                self.hook_owners[id(owner)] = owner

    def record(self, key: BucketKey, sim_dt: float, wall_dt: float) -> None:
        """Account one dispatched entry to ``key``."""
        stats = self.buckets.get(key)
        if stats is None:
            stats = BucketStats(key[0], key[1])
            self.buckets[key] = stats
        stats.events += 1
        stats.sim_seconds += sim_dt
        stats.wall_seconds += wall_dt

    # -- reporting ------------------------------------------------------
    def ranked(self) -> List[BucketStats]:
        """Buckets hottest-first: wall time, then events, then label.

        The label tie-break keeps the report deterministic when wall
        samples tie (e.g. all-zero on a mocked clock).
        """
        return sorted(
            self.buckets.values(),
            key=lambda b: (-b.wall_seconds, -b.events, b.category, b.callsite),
        )

    def totals(self) -> Dict[str, Any]:
        ranked = self.buckets.values()
        return {
            "events": sum(b.events for b in ranked),
            "sim_seconds": fsum(b.sim_seconds for b in ranked),
            "wall_seconds": fsum(b.wall_seconds for b in ranked),
            "buckets": len(self.buckets),
        }


_SLOT: Slot[SimProfiler] = Slot()


def active_profiler() -> Optional[SimProfiler]:
    """The profiler new Simulators bind to (None when disabled)."""
    return _SLOT.get()


def capture() -> ContextManager[SimProfiler]:
    """``with capture() as profiler:`` -- a fresh profiler for the block."""
    return _SLOT.capture(SimProfiler())
