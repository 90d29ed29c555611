"""Multiprocessing fan-out for the experiment suite.

The paper's evaluation sweeps many independent cluster configurations
(every figure bar and table row is its own simulated cluster with its own
placement seed), which is embarrassingly parallel.  This module fans
those sweep points out to a worker pool:

- An experiment module may opt into *task granularity* by exporting
  three functions: ``tasks(full_scale, seeds)`` returning an ordered
  list of hashable task keys, ``run_task(key, full_scale)`` executing
  one key, and ``merge(keyed, full_scale, seeds)`` assembling the
  per-key values into the final
  :class:`~repro.experiments.runner.ExperimentResult`.  Each key embeds
  its own placement seed and tasks share nothing, so results are
  bit-identical at any job count.
- Modules without the protocol export ``run(full_scale)`` and run
  whole-experiment-at-a-time (still inside a worker, so independent
  experiments overlap).

Rows are merged in the order ``tasks`` emitted them, never in completion
order, so ``--jobs 4`` output is row-for-row identical to ``--jobs 1``.

The worker count comes from, in priority order: an explicit ``jobs``
argument, the ``RAIDP_JOBS`` environment variable, else 1 (sequential,
in-process -- the sequential path runs the exact same task/merge code).
``jobs <= 0`` means "all cores".  The pool is an ordered ``map`` with
one task per dispatch, so tasks start in emission order; a task's
exception is re-raised in the caller.  The pool start method is
``fork`` where available (snapshot stores and imports are inherited),
else ``spawn``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
from typing import Any, Hashable, List, NamedTuple, Optional, Sequence

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


def _execute(spec: TaskSpec) -> Any:
    """Pool worker body (module-level, hence picklable)."""
    module = importlib.import_module(spec.module)
    if spec.key == WHOLE_EXPERIMENT:
        return module.run(full_scale=spec.full_scale)
    return module.run_task(spec.key, full_scale=spec.full_scale)


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the already-imported interpreter state (cheap start,
    # deterministic hash seed inheritance, warm snapshot store); fall
    # back to spawn elsewhere.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_specs(specs: Sequence[TaskSpec], jobs: Optional[int] = None) -> List[Any]:
    """Execute specs, returning values in input order (never completion order)."""
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return [_execute(spec) for spec in specs]
    with _pool_context().Pool(processes=min(jobs, len(specs))) as pool:
        return pool.map(_execute, specs, chunksize=1)


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
