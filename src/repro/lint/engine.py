"""The ``repro.lint`` rule engine: findings, suppressions, file walking.

The engine is deliberately small: a :class:`Rule` parses nothing itself
-- it receives a :class:`FileContext` with the source, the parsed AST,
and path metadata, and yields :class:`Finding` objects.  The engine owns
everything rule-independent:

* path scoping (per-rule ``paths`` globs plus per-rule allowlists),
* ``# raidp: noqa[RULE]`` suppressions, which *must* carry a
  justification (``# raidp: noqa[RDP001] -- why this is safe``) --
  a bare suppression is itself reported as ``RDP000`` and does **not**
  suppress,
* stable ordering of findings (path, line, column, rule id),
* the severity split (``error`` fails the run; ``warning`` only under
  ``--strict``).

Determinism note: the linter is itself held to the invariants it
enforces -- no wall clock, no hash-order iteration -- so its output is
byte-identical across runs and machines.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "LintConfig",
    "LintEngine",
    "Suppressions",
    "SUPPRESSION_RULE_ID",
    "STALE_SUPPRESSION_RULE_ID",
]

#: Findings about malformed suppression comments carry this rule id.
SUPPRESSION_RULE_ID = "RDP000"

#: A justified suppression whose rule no longer fires on that line is
#: itself a finding under this id -- the allowlist must stay honest.
STALE_SUPPRESSION_RULE_ID = "RDP007"

#: Matches ``raidp: noqa[RDP001]`` (optionally ``... -- reason``) inside
#: a comment token; rule lists may be comma-separated.
_NOQA_RE = re.compile(
    r"#\s*raidp:\s*noqa\[(?P<rules>[A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str  # "error" | "warning"
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


class Suppressions:
    """Per-file map of line -> suppressed rule ids, parsed from comments.

    A suppression must name its rules and justify itself; justification
    is what makes the next reader trust the exemption.  Malformed
    suppressions (no ``--`` reason) are recorded in
    :attr:`malformed` and deliberately do *not* suppress anything.

    Parsing tokenizes the source and only inspects COMMENT tokens, so a
    docstring *describing* the noqa syntax is not itself a suppression.
    """

    def __init__(self, source: str) -> None:
        self._by_line: Dict[int, frozenset] = {}
        self.malformed: List[Tuple[int, str]] = []
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            comments = []
        for lineno, text in comments:
            match = _NOQA_RE.search(text)
            if match is None:
                continue
            names = frozenset(
                rule.strip() for rule in match.group("rules").split(",") if rule.strip()
            )
            reason = match.group("reason")
            if not reason:
                self.malformed.append((lineno, ", ".join(sorted(names))))
                continue
            self._by_line[lineno] = names

    def suppresses(self, lineno: int, rule: str) -> bool:
        rules = self._by_line.get(lineno)
        return rules is not None and rule in rules

    def items(self) -> List[Tuple[int, frozenset]]:
        """(line, suppressed rule ids) pairs, in line order."""
        return sorted(self._by_line.items())

    def __len__(self) -> int:
        return len(self._by_line)


@dataclass
class FileContext:
    """Everything a rule needs about one file: parsed once, shared.

    Per-function CFGs are built on first use, so files outside a flow
    rule's scope never pay for them.
    """

    path: str  # forward-slash path as given/walked, used for scoping
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    _cfgs: Optional[dict] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def function_cfgs(self) -> dict:
        """qualname -> CFG for every function in the file (cached)."""
        if self._cfgs is None:
            from .cfg import function_cfgs

            self._cfgs = function_cfgs(self.tree)
        return self._cfgs


class Rule:
    """Base class: subclasses set the class attributes and ``check``.

    ``paths`` scopes the rule to files matching any of the glob patterns
    (empty = every file).  Patterns match against the forward-slash file
    path, anchored nowhere (``fnmatch`` against the full string), so
    ``*/sim/*.py`` works for both absolute and relative invocations.
    """

    id: str = "RDP999"
    title: str = "unnamed rule"
    severity: str = "error"
    paths: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.paths:
            return True
        return any(fnmatch.fnmatch(path, pattern) for pattern in self.paths)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity=self.severity,
            message=message,
        )


@dataclass
class LintConfig:
    """Run-wide configuration: rule selection and per-rule allowlists."""

    #: Restrict to these rule ids (None = all registered rules).
    select: Optional[frozenset] = None
    #: Drop these rule ids.
    ignore: frozenset = frozenset()
    #: rule id -> glob patterns of files the rule skips entirely.  Unlike
    #: a ``noqa``, an allowlist entry exempts a whole file -- reserved
    #: for files whose *purpose* conflicts with the rule (the wall-clock
    #: profiler vs RDP001).
    allowlists: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        return self.select is None or rule_id in self.select

    def allowlisted(self, rule_id: str, path: str) -> bool:
        return any(
            fnmatch.fnmatch(path, pattern)
            for pattern in self.allowlists.get(rule_id, ())
        )


class LintEngine:
    """Runs a rule set over sources, files, or directory trees."""

    def __init__(
        self,
        rules: Sequence[Rule],
        config: Optional[LintConfig] = None,
    ) -> None:
        self.config = config or LintConfig()
        self.rules: List[Rule] = [
            rule for rule in rules if self.config.rule_enabled(rule.id)
        ]
        self.files_checked = 0

    # -- single source ---------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Lint one source string; ``path`` drives rule scoping."""
        path = path.replace("\\", "/")
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="E999",
                    severity="error",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        ctx = FileContext(path=path, source=source, tree=tree)
        suppressions = Suppressions(source)
        findings: List[Finding] = []
        for lineno, rules in suppressions.malformed:
            findings.append(
                Finding(
                    path=path,
                    line=lineno,
                    col=1,
                    rule=SUPPRESSION_RULE_ID,
                    severity="error",
                    message=(
                        f"suppression of [{rules}] lacks a justification; "
                        "write '# raidp: noqa[RULE] -- why this is safe' "
                        "(unjustified suppressions do not suppress)"
                    ),
                )
            )
        suppressed_hits = set()
        active_rule_ids = set()
        for rule in self.rules:
            if not rule.applies_to(path):
                continue
            if self.config.allowlisted(rule.id, path):
                continue
            active_rule_ids.add(rule.id)
            for finding in rule.check(ctx):
                if suppressions.suppresses(finding.line, finding.rule):
                    suppressed_hits.add((finding.line, finding.rule))
                    continue
                findings.append(finding)
        findings.extend(
            self._stale_suppressions(
                path, suppressions, suppressed_hits, active_rule_ids
            )
        )
        findings.sort(key=lambda f: f.sort_key)
        return findings

    def _stale_suppressions(
        self,
        path: str,
        suppressions: Suppressions,
        suppressed_hits: set,
        active_rule_ids: set,
    ) -> List[Finding]:
        """RDP007: justified suppressions whose rule no longer fires.

        Only rules that actually ran on this file count -- a suppression
        for a rule excluded by ``--select``/``--ignore`` or an allowlist
        is not stale, it just was not exercised this run.
        """
        if not self.config.rule_enabled(STALE_SUPPRESSION_RULE_ID):
            return []
        stale: List[Finding] = []
        for lineno, rules in suppressions.items():
            for rule_id in sorted(rules):
                if rule_id == STALE_SUPPRESSION_RULE_ID:
                    continue
                if rule_id not in active_rule_ids:
                    continue
                if (lineno, rule_id) in suppressed_hits:
                    continue
                if suppressions.suppresses(lineno, STALE_SUPPRESSION_RULE_ID):
                    continue
                stale.append(
                    Finding(
                        path=path,
                        line=lineno,
                        col=1,
                        rule=STALE_SUPPRESSION_RULE_ID,
                        severity="error",
                        message=(
                            f"stale suppression: {rule_id} no longer fires on "
                            "this line; delete the noqa (stale entries hide "
                            "future regressions behind a reviewed-looking comment)"
                        ),
                    )
                )
        return stale

    # -- files and trees -------------------------------------------------
    def lint_file(self, path: str) -> List[Finding]:
        source = Path(path).read_text(encoding="utf-8")
        self.files_checked += 1
        return self.lint_source(source, path=str(path))

    def lint_paths(self, paths: Iterable[str]) -> List[Finding]:
        """Lint files and/or directory trees; order-stable output."""
        findings: List[Finding] = []
        for path in self._walk(paths):
            findings.extend(self.lint_file(path))
        findings.sort(key=lambda f: f.sort_key)
        return findings

    @staticmethod
    def _walk(paths: Iterable[str]) -> List[str]:
        files: List[str] = []
        for entry in paths:
            path = Path(entry)
            if path.is_dir():
                files.extend(
                    str(child)
                    for child in sorted(path.rglob("*.py"))
                    if "__pycache__" not in child.parts
                )
            else:
                files.append(str(path))
        return files
