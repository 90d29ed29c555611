"""The reachability ledger, checked without running the probe.

``make reach`` runs ``tests/reach.py`` and diffs the ``src/`` functions
no shipped entry point calls against ``tests/reach_ledger.txt``.  These
tests hold the ledger's form here: every line names a function that
exists, gives an allowed reason, and DESIGN.md §4b's *tests only*
cells agree with it.  The ledger's twin for options: every defaulted
config field is set by some call, or it is a constant.
"""

import ast
import dataclasses
import re
from pathlib import Path

from repro.analysis.cost import DatacenterCostModel
from repro.analysis.montecarlo import Fleet
from repro.core.layout import LayoutSpec
from repro.core.monitor import MonitorConfig
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryOptions
from repro.experiments.common import Scale
from repro.faults import (
    CorrelatedFailureModel,
    DiskLifetimeModel,
    LatentErrorModel,
    RepairModel,
)
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from repro.sim.disk import DiskGeometry
from tests import reach

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).with_name("reach_ledger.txt")
DESIGN = ROOT / "DESIGN.md"
ROADMAP = ROOT / "ROADMAP.md"
CONFIG_CLASSES = (
    DfsConfig, RaidpConfig, RecoveryOptions, LayoutSpec, MonitorConfig,
    ClusterSpec, DiskGeometry, Scale, Fleet, DatacenterCostModel,
    DiskLifetimeModel, LatentErrorModel, CorrelatedFailureModel, RepairModel,
)
REASON = re.compile(
    r"owed by item \d+|CLI flag --[\w-]+( json)?|paper §[\d.]+ claim, tests only|error path"
)


def _ledger():
    entries = {}
    for line in LEDGER.read_text().splitlines():
        name, sep, reason = line.partition("  ")
        assert sep and name not in entries, f"malformed or duplicate line {line!r}"
        entries[name] = reason
    return entries


def test_ledger_names_defined_functions_with_allowed_reasons():
    entries = _ledger()
    assert list(entries) == sorted(entries), "the probe prints the ledger sorted"
    assert set(entries) <= reach.defined(), sorted(set(entries) - reach.defined())
    for name, reason in entries.items():
        assert REASON.fullmatch(reason), f"{name}: reason {reason!r}"


def test_design_tests_only_cells_match_the_ledger():
    """Each §4b *tests only* cell names functions (or a module) and a
    reason; every ledger entry it names carries that reason."""
    section = DESIGN.read_text().split("## 4b.")[1].split("\n## ")[0]
    cells = re.findall(r"tests only: (.*?) — (owed by item \d+|paper §[\d.]+ claim)", section)
    assert len(cells) == 2, cells
    entries = _ledger()
    for names, reason in cells:
        for name in re.findall(r"`([\w.]+)`", names):
            matched = [
                entry for entry in entries
                if entry.split(":")[0] == f"repro.{name}"
                or entry.split(":")[1].split(".")[-1] == name
            ]
            assert matched, f"DESIGN.md §4b marks {name} tests only; the ledger lacks it"
            for entry in matched:
                assert entries[entry].startswith(reason), (entry, entries[entry], reason)


def test_every_debt_names_an_open_roadmap_item():
    """An ``owed by item N`` entry is a debt of an item ROADMAP.md still
    lists under "Open items": closing an item settles its debts first."""
    section = ROADMAP.read_text().split("## Open items")[1].split("\n## ")[0]
    open_items = set(re.findall(r"^(\d+)\. \*\*", section, flags=re.M))
    debts = {
        name: item
        for name, reason in _ledger().items()
        for item in re.findall(r"owed by item (\d+)", reason)
    }
    assert open_items and debts
    assert {name: item for name, item in debts.items() if item not in open_items} == {}


def test_every_defaulted_config_field_is_set_by_some_call():
    """A default no call overrides is a constant in disguise: it belongs
    next to the code that reads it, not on a config class."""
    passed = set()
    for top in ("src", "tests", "examples", "benchmarks", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    passed.update(keyword.arg for keyword in node.keywords)
    unset = [
        f"{cls.__name__}.{f.name}"
        for cls in CONFIG_CLASSES
        for f in dataclasses.fields(cls)
        if f.name not in passed
        and (f.default is not dataclasses.MISSING
             or f.default_factory is not dataclasses.MISSING)
    ]
    assert unset == [], unset
