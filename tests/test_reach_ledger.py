"""The reachability ledger, checked without running the probe.

``make reach`` runs ``tests/reach.py`` and diffs the ``src/`` functions
no shipped entry point calls against ``tests/reach_ledger.txt``.  These
tests hold the ledger's form here: every line names a function that
exists, gives an allowed reason, and DESIGN.md §4b's *tests only*
cells agree with it.
"""

import re
from pathlib import Path

from tests import reach

LEDGER = Path(__file__).with_name("reach_ledger.txt")
DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"
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
    assert len(cells) == 5, cells
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
