"""Multiprocessing fan-out for the experiment suite.

The paper's evaluation sweeps many independent cluster configurations
(every figure bar and table row is its own simulated cluster with its own
placement seed), which is embarrassingly parallel.  This module fans
those sweep points out to a worker pool:

- An experiment module may opt into *task granularity* by exporting a
  ``tasks(full_scale, seeds)`` function returning an ordered list of
  hashable task keys, a module-level ``run_task(key, full_scale)``
  executing one key, and a ``merge(keyed, full_scale, seeds)`` that
  assembles the per-key values into the final
  :class:`~repro.experiments.runner.ExperimentResult`.  Each key embeds
  its own placement seed, so results are bit-identical at any job count.
- A task module may additionally export ``task_deps(key) -> keys``
  (same-module prerequisite keys).  Dependency edges let one task hand
  its result -- e.g. a post-ingest cluster snapshot, or a rebuild phase
  boundary time -- to a successor task; a dependent module's
  ``run_task`` accepts the extra keyword ``deps``, a ``{key: result}``
  dict of its prerequisites.
- Modules without the protocol run whole-experiment-at-a-time (still
  inside a worker, so independent experiments overlap).

Rows are merged in the order ``tasks`` emitted them, never in completion
order, so ``--jobs 4`` output is row-for-row identical to ``--jobs 1``.
Dependencies must point backwards in that emission order (a task may
only depend on keys emitted before it), which also makes the sequential
path a trivially valid topological order.

The worker count comes from, in priority order: an explicit ``jobs``
argument, the ``RAIDP_JOBS`` environment variable, else 1 (sequential,
in-process -- the sequential path runs the exact same task/merge code).
``jobs <= 0`` means "all cores".  Tasks start in emission order, each
dependent once its prerequisites finish.  The pool start method is ``fork`` where available (snapshot
stores and imports are inherited), else ``spawn``; every dependency
payload survives pickling either way.
"""

from __future__ import annotations

import importlib
import inspect
import multiprocessing
import os
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

#: Sentinel key for "run the module's run() as a single task".
WHOLE_EXPERIMENT = "__whole_experiment__"

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV_VAR = "RAIDP_JOBS"


class TaskSpec(NamedTuple):
    """One picklable unit of work for the pool."""

    module: str
    key: Hashable
    full_scale: bool


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``RAIDP_JOBS`` > 1; <=0 = all cores."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError as exc:
            raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {env!r}") from exc
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def supports_tasks(module: Any) -> bool:
    """True if the module opted into task-granularity fan-out."""
    return (
        hasattr(module, "tasks")
        and hasattr(module, "run_task")
        and hasattr(module, "merge")
    )


def task_deps(module: Any, key: Hashable) -> Tuple[Hashable, ...]:
    """Same-module prerequisite keys of one task (empty when unannotated)."""
    if key == WHOLE_EXPERIMENT:
        return ()
    deps_fn = getattr(module, "task_deps", None)
    return tuple(deps_fn(key)) if deps_fn is not None else ()


def _accepts_deps(module: Any) -> bool:
    return "deps" in inspect.signature(module.run_task).parameters


def _execute(spec: TaskSpec, deps: Optional[Dict[Hashable, Any]] = None) -> Any:
    """Pool worker body (module-level, hence picklable)."""
    module = importlib.import_module(spec.module)
    if spec.key == WHOLE_EXPERIMENT:
        return module.run(full_scale=spec.full_scale)
    if deps and _accepts_deps(module):
        return module.run_task(spec.key, full_scale=spec.full_scale, deps=deps)
    return module.run_task(spec.key, full_scale=spec.full_scale)


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the already-imported interpreter state (cheap start,
    # deterministic hash seed inheritance, warm snapshot store); fall
    # back to spawn elsewhere.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _Plan:
    """Resolved dependency structure over one spec list."""

    def __init__(self, specs: Sequence[TaskSpec]) -> None:
        index_of: Dict[Tuple[str, Hashable], int] = {}
        for index, spec in enumerate(specs):
            index_of[(spec.module, spec.key)] = index
        self.specs = list(specs)
        self.deps: List[Tuple[int, ...]] = []
        for index, spec in enumerate(specs):
            module = importlib.import_module(spec.module)
            dep_indices = []
            for dep_key in task_deps(module, spec.key):
                dep_index = index_of.get((spec.module, dep_key))
                if dep_index is None:
                    raise ValueError(
                        f"task {spec.key!r} of {spec.module} depends on "
                        f"{dep_key!r}, which is not in the spec list"
                    )
                if dep_index >= index:
                    raise ValueError(
                        f"task {spec.key!r} of {spec.module} depends on "
                        f"{dep_key!r}, which is emitted after it; "
                        "dependencies must point backwards"
                    )
                dep_indices.append(dep_index)
            self.deps.append(tuple(dep_indices))

    def dep_results(
        self, index: int, results: List[Any]
    ) -> Optional[Dict[Hashable, Any]]:
        if not self.deps[index]:
            return None
        return {
            self.specs[dep].key: results[dep] for dep in self.deps[index]
        }


def _run_sequential(plan: _Plan) -> List[Any]:
    results: List[Any] = [None] * len(plan.specs)
    for index, spec in enumerate(plan.specs):
        results[index] = _execute(spec, plan.dep_results(index, results))
    return results


def _run_pooled(plan: _Plan, workers: int) -> List[Any]:
    """Dependency-aware pool dispatch.

    The tasks ready at the start are submitted in emission order, each
    dependent as soon as its prerequisites finish; the pool consumes its
    queue FIFO, so submission order is start order.  Results are slotted
    by input index, never completion order.
    """
    total = len(plan.specs)
    results: List[Any] = [None] * total
    waiting_on: List[int] = [len(deps) for deps in plan.deps]
    dependents: List[List[int]] = [[] for _ in range(total)]
    for index, deps in enumerate(plan.deps):
        for dep in deps:
            dependents[dep].append(index)

    condition = threading.Condition()
    completed: List[Tuple[int, Any]] = []
    failures: List[BaseException] = []

    def _make_callbacks(
        index: int,
    ) -> Tuple[Callable[[Any], None], Callable[[BaseException], None]]:
        def on_done(value: Any) -> None:
            with condition:
                completed.append((index, value))
                condition.notify()

        def on_error(exc: BaseException) -> None:
            with condition:
                failures.append(exc)
                condition.notify()

        return on_done, on_error

    with _pool_context().Pool(processes=workers) as pool:

        def submit(indices: List[int]) -> None:
            for index in indices:
                on_done, on_error = _make_callbacks(index)
                pool.apply_async(
                    _execute,
                    (plan.specs[index], plan.dep_results(index, results)),
                    callback=on_done,
                    error_callback=on_error,
                )

        submit([index for index in range(total) if waiting_on[index] == 0])
        finished = 0
        while finished < total:
            with condition:
                while not completed and not failures:
                    condition.wait()
                if failures:
                    raise failures[0]
                batch, completed[:] = completed[:], []
            newly_ready: List[int] = []
            for index, value in batch:
                results[index] = value
                finished += 1
                for dependent in dependents[index]:
                    waiting_on[dependent] -= 1
                    if waiting_on[dependent] == 0:
                        newly_ready.append(dependent)
            if newly_ready:
                submit(newly_ready)
    return results


def run_specs(specs: Sequence[TaskSpec], jobs: Optional[int] = None) -> List[Any]:
    """Execute specs, returning values in input order (never completion order)."""
    plan = _Plan(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return _run_sequential(plan)
    return _run_pooled(plan, workers=min(jobs, len(specs)))


def fan_out(
    module_name: str,
    full_scale: bool = False,
    seeds: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
) -> Dict[Hashable, Any]:
    """Run one protocol module's tasks, returning ``{key: value}``.

    Used by the modules' own ``run()`` so the single-experiment API gets
    the same fan-out as the CLI.
    """
    module = importlib.import_module(module_name)
    keys = list(
        module.tasks(full_scale=full_scale, seeds=seeds)
        if seeds is not None
        else module.tasks(full_scale=full_scale)
    )
    specs = [TaskSpec(module_name, key, full_scale) for key in keys]
    values = run_specs(specs, jobs)
    return dict(zip(keys, values))


def run_many(
    names: Sequence[str],
    full_scale: bool = False,
    jobs: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[Any]:
    """Run several registered experiments through one shared pool.

    Returns the :class:`ExperimentResult` list in ``names`` order.  All
    experiments' tasks are flattened into a single dispatch plan so a
    slow experiment's stragglers overlap the next experiment's work.
    """
    from repro.experiments.runner import REGISTRY

    plan = []  # (name, module_name, keys-or-None, start offset)
    specs: List[TaskSpec] = []
    for name in names:
        if name not in REGISTRY:
            raise KeyError(f"unknown experiment {name!r}; known: {sorted(REGISTRY)}")
        module_name, _title = REGISTRY[name]
        module = importlib.import_module(module_name)
        start = len(specs)
        if supports_tasks(module):
            keys = list(
                module.tasks(full_scale=full_scale, seeds=seeds)
                if seeds is not None
                else module.tasks(full_scale=full_scale)
            )
            specs.extend(TaskSpec(module_name, key, full_scale) for key in keys)
            plan.append((name, module_name, keys, start))
        else:
            specs.append(TaskSpec(module_name, WHOLE_EXPERIMENT, full_scale))
            plan.append((name, module_name, None, start))
    values = run_specs(specs, jobs)
    results = []
    for name, module_name, keys, start in plan:
        if keys is None:
            results.append(values[start])
            continue
        module = importlib.import_module(module_name)
        keyed = dict(zip(keys, values[start : start + len(keys)]))
        if seeds is not None:
            results.append(module.merge(keyed, full_scale=full_scale, seeds=seeds))
        else:
            results.append(module.merge(keyed, full_scale=full_scale))
    return results
