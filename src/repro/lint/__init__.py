"""``repro.lint``: determinism & invariant static analysis for this repo.

The simulator's headline guarantee -- bitwise-identical schedules and
fingerprints across runs, job counts, and tracing on/off -- used to be
enforced only after the fact by fingerprint tests.  This package checks
the *causes* statically: no wall clock or entropy in sim code (RDP001),
no hash-order iteration feeding decisions (RDP002), no OS blocking in
sim processes (RDP003), registered trace categories (RDP004), fsum-based
float accumulation in stats (RDP005), and fully annotated public APIs
in ``core/``/``sim/`` (RDP006).  Whether every resource grant is
released is proven at run time instead: the simulator's grant ledger
refuses a run that ends holding one (DESIGN.md section 7.3).

Run it as ``python -m repro.lint src/`` or ``make lint``; see
DESIGN.md section 10 for the ruleset and suppression policy.
"""

from .engine import (
    FileContext,
    Finding,
    LintConfig,
    LintEngine,
    Rule,
    Suppressions,
    SUPPRESSION_RULE_ID,
)
from .rules import default_rules
from .cli import build_engine, main

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "LintEngine",
    "Rule",
    "Suppressions",
    "SUPPRESSION_RULE_ID",
    "default_rules",
    "build_engine",
    "main",
]
