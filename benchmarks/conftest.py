"""Shared helpers for the benchmark harness.

Each benchmark file regenerates one of the paper's tables or figures via
``pytest-benchmark`` (so wall-clock cost is tracked run over run) and
asserts the *shape* of the result: orderings, approximate ratios, and
crossovers.  Absolute simulated seconds are not compared to the paper's
testbed seconds.

The experiment regenerations honour the same process fan-out as the CLI:
set ``RAIDP_JOBS=N`` to run each figure's independent sweep points on N
worker processes (results are bit-identical at any job count).
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.experiments.parallel import resolve_jobs
from repro.experiments.runner import run_experiment


def rows_by_label(result) -> Dict[str, float]:
    """Collapse an ExperimentResult's rows into {label: measured}."""
    return {label: measured for label, measured, _paper in result.rows}


@pytest.fixture(scope="session")
def experiment_jobs() -> int:
    """Worker-process fan-out for experiment regeneration (``RAIDP_JOBS``)."""
    return resolve_jobs(None)


@pytest.fixture
def run_once(experiment_jobs):
    """Run a registered experiment exactly once under the benchmark
    timer, at the session's ``RAIDP_JOBS`` fan-out."""

    def runner(benchmark, name, **kwargs):
        return benchmark.pedantic(
            lambda: run_experiment(name, jobs=experiment_jobs, **kwargs),
            rounds=1,
            iterations=1,
        )

    return runner
