"""Experiment regenerators: one module per table/figure of the paper.

Every experiment module is listed in the registry in
:mod:`repro.experiments.runner`; ``run_experiment(name, full_scale=False,
seeds=None, jobs=None)`` regenerates one, and the module also provides
the CLI::

    python -m repro.experiments            # list experiments
    python -m repro.experiments fig8       # regenerate Fig. 8
    python -m repro.experiments all        # everything

Simulated datasets are scaled down by default (the paper's 100 GB runs
take minutes of wall clock in pure Python); pass ``--full`` for
paper-scale inputs.  Reported *ratios* are scale-stable.
"""

from repro.experiments.runner import (
    REGISTRY,
    ExperimentResult,
    list_experiments,
    run_experiment,
)

__all__ = [
    "REGISTRY",
    "ExperimentResult",
    "list_experiments",
    "run_experiment",
]
