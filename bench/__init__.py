"""The repo benchmark: six workloads, four end-to-end metrics, per-layer attribution.

``BENCHMARK.json`` at the repo root is the contract (workload and metric
names, units, bounds); this package measures it.  It drives ``repro``
only through public functions and records its spans from the outside,
so the measured program is exactly what its users run.  ``README.md``
beside this file has the glossary, the workload rationale and the
interaction table.

Entry points: ``python -m bench run`` and ``python -m bench compare``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

#: The checkout this package sits in; ``src/`` beside it holds ``repro``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Default place for ``results.json`` / ``trace.json`` (git-ignored).
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: The seed the committed baseline and EXPERIMENTS.md tables use, and the
#: seed held out for checking a claim on inputs it was not tuned on.
WORKING_SEED = 1
HELD_OUT_SEED = 7


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the single source of names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)
