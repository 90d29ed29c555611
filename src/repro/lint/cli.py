"""``python -m repro.lint`` -- the determinism & invariant linter CLI.

Usage::

    python -m repro.lint src/                  # lint a tree (text output)
    python -m repro.lint --format json --output lint.json src/
    python -m repro.lint --select RDP001 src/  # one rule only
    python -m repro.lint --list-rules          # the rule set and scopes

Exit codes: 0 clean, 1 unsuppressed error findings (or warnings under
``--strict``), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .engine import Finding, LintConfig, LintEngine
from .rules import default_rules

#: Whole-file exemptions for rules whose premise a file's *purpose*
#: violates.  Kept here (not in each file) so the full exemption surface
#: is reviewable in one place; everything else uses inline
#: ``# raidp: noqa[RULE] -- reason`` suppressions.
DEFAULT_ALLOWLISTS: Dict[str, tuple] = {
    # The hot-path profiler exists to read the wall clock.
    "RDP001": (
        "*/repro/tools/profile.py",
        "*/repro/obs/simprofile.py",
    ),
    # Real file I/O lives in the exporters and the CLI tools by design.
    "RDP003": ("*/repro/obs/export.py",),
}

#: JSON output schema version (bump on breaking shape changes).
JSON_SCHEMA_VERSION = 1


def build_engine(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    allowlists: Optional[Dict[str, tuple]] = None,
) -> LintEngine:
    """The standard engine: default rules + repo allowlists."""
    config = LintConfig(
        select=frozenset(select) if select else None,
        ignore=frozenset(ignore) if ignore else frozenset(),
        allowlists=dict(DEFAULT_ALLOWLISTS if allowlists is None else allowlists),
    )
    return LintEngine(default_rules(), config)


def _render_text(
    findings: List[Finding], engine: LintEngine, show_source: bool
) -> str:
    lines: List[str] = []
    sources: Dict[str, List[str]] = {}
    for finding in findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} [{finding.severity}] {finding.message}"
        )
        if show_source:
            try:
                text = sources.setdefault(
                    finding.path,
                    open(finding.path, encoding="utf-8").read().splitlines(),
                )
            except OSError:
                text = []
            if 1 <= finding.line <= len(text):
                source = text[finding.line - 1]
                lines.append(f"    {source.strip()}")
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(
        f"{engine.files_checked} files checked: "
        f"{errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(lines)


def _render_json(findings: List[Finding], engine: LintEngine) -> str:
    payload = {
        "schema": JSON_SCHEMA_VERSION,
        "files_checked": engine.files_checked,
        "counts": {
            "error": sum(1 for f in findings if f.severity == "error"),
            "warning": sum(1 for f in findings if f.severity == "warning"),
        },
        "findings": [finding.as_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _list_rules() -> str:
    lines = []
    for rule in default_rules():
        scope = ", ".join(rule.paths) if rule.paths else "all files"
        lines.append(f"{rule.id}  [{rule.severity:<7}] {rule.title}")
        lines.append(f"        scope: {scope}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static determinism & invariant checks for the RAIDP "
        "simulator: RDP001..RDP007.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--show-source",
        action="store_true",
        help="print the offending source line under each finding",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="warnings also fail the run (exit 1)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule set and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src/)")

    select = [r.strip() for r in args.select.split(",")] if args.select else None
    ignore = [r.strip() for r in args.ignore.split(",")] if args.ignore else None
    engine = build_engine(select=select, ignore=ignore)
    findings = engine.lint_paths(args.paths)

    if args.format == "json":
        report = _render_json(findings, engine)
    else:
        report = _render_text(findings, engine, show_source=args.show_source)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)

    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if errors or (args.strict and warnings):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - module shim
    sys.exit(main())
