"""The multiprocessing experiment fan-out: determinism and plumbing.

The hard requirement: the same experiment run with ``--jobs 1`` and
``--jobs 4`` must produce identical :class:`ExperimentResult` rows
(labels, values, order).  Each task key embeds its own placement seed, so
worker scheduling cannot leak into the results.
"""

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    TaskSpec,
    WHOLE_EXPERIMENT,
    resolve_jobs,
    run_many,
    run_specs,
    supports_tasks,
)
from repro.experiments.runner import main, run_experiment


# ----------------------------------------------------------------------
# Job-count resolution.
# ----------------------------------------------------------------------
def test_resolve_jobs_defaults_to_one(monkeypatch):
    monkeypatch.delenv(parallel.JOBS_ENV_VAR, raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_env_var(monkeypatch):
    monkeypatch.setenv(parallel.JOBS_ENV_VAR, "3")
    assert resolve_jobs(None) == 3


def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(parallel.JOBS_ENV_VAR, "3")
    assert resolve_jobs(2) == 2


def test_resolve_jobs_zero_means_all_cores(monkeypatch):
    import os

    monkeypatch.delenv(parallel.JOBS_ENV_VAR, raising=False)
    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_garbage_env(monkeypatch):
    monkeypatch.setenv(parallel.JOBS_ENV_VAR, "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)


# ----------------------------------------------------------------------
# Task protocol discovery.
# ----------------------------------------------------------------------
def test_sim_experiments_support_task_granularity():
    import repro.experiments.fig8_write as fig8
    import repro.experiments.fig9_read as fig9
    import repro.experiments.fig10_benchmarks as fig10
    import repro.experiments.table2_recovery as table2

    for module in (fig8, fig9, fig10, table2):
        assert supports_tasks(module)
        keys = module.tasks()
        assert keys, f"{module.__name__} emitted no tasks"
        assert len(set(keys)) == len(keys), "task keys must be unique"


def test_analytic_experiments_fall_back_to_whole_run():
    import repro.experiments.fig1_design_space as fig1

    assert not supports_tasks(fig1)
    specs = [TaskSpec("repro.experiments.fig1_design_space", WHOLE_EXPERIMENT, False)]
    (result,) = run_specs(specs, jobs=1)
    assert result.experiment == "fig1"


# ----------------------------------------------------------------------
# Determinism under parallelism.
# ----------------------------------------------------------------------
def test_fig8_jobs1_and_jobs4_rows_identical():
    """The acceptance property: row-for-row identical output at any jobs."""
    sequential = run_experiment("fig8", seeds=(1,), jobs=1)
    parallel4 = run_experiment("fig8", seeds=(1,), jobs=4)
    assert sequential.rows == parallel4.rows
    assert sequential.experiment == parallel4.experiment
    assert sequential.unit == parallel4.unit


def test_table2_jobs1_and_jobs2_rows_identical():
    """Both 64 MB RAID-6 rows, one task each.  The 64 MB RAIDP rows are
    the next test's."""
    from repro import units
    from repro.experiments.table2_recovery import tasks

    subset = [k for k in tasks() if k[0] == "raid6" and k[1] == 64 * units.MiB]
    specs = [TaskSpec("repro.experiments.table2_recovery", key, False) for key in subset]
    assert run_specs(specs, jobs=1) == run_specs(specs, jobs=2)


def test_table2_cheap_rows_jobs1_vs_jobs2_identical():
    """The four 64 MB RAIDP rebuilds."""
    from repro import units
    from repro.experiments.table2_recovery import tasks

    specs = [
        TaskSpec("repro.experiments.table2_recovery", key, False)
        for key in tasks()
        if key[0] == "raidp" and key[2] == 64 * units.MiB
    ]
    assert run_specs(specs, jobs=1) == run_specs(specs, jobs=2)


def test_ext_scale_spawn_context_matches_sequential(monkeypatch):
    """A spawn-context pool run: each point is one task, built and run
    in a fresh interpreter, and must produce the sequential answer
    bit-for-bit."""
    import multiprocessing

    specs = [
        TaskSpec("repro.experiments.ext_scale", ("raidp", 16, 1), False),
        TaskSpec("repro.experiments.ext_scale", ("hdfs3", 16, 1), False),
    ]
    sequential = run_specs(specs, jobs=1)
    monkeypatch.setattr(
        parallel, "_pool_context", lambda: multiprocessing.get_context("spawn")
    )
    assert run_specs(specs, jobs=2) == sequential


def test_a_failing_task_raises_its_own_error_through_the_pool():
    """A task that raises in a worker fails the whole run in the caller
    with the task's own exception, next to a task that succeeds."""
    from repro import units

    specs = [
        TaskSpec("repro.experiments.table2_recovery", key, False)
        for key in (
            ("raid6", 64 * units.MiB, 0, "write"),
            ("raidp", "bogus", 4 * units.MiB, 0, 1),
        )
    ]
    with pytest.raises(ValueError, match="unknown lock mode"):
        run_specs(specs, jobs=2)


def test_run_many_preserves_request_order():
    results = run_many(["table1", "fig1"], jobs=1)
    assert [r.experiment for r in results] == ["table1", "fig1"]


def test_run_many_rejects_unknown_experiment():
    with pytest.raises(KeyError):
        run_many(["fig99"], jobs=1)


def test_cli_jobs_flag(capsys):
    assert main(["fig1", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "design space" in out
