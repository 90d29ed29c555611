"""Unit tests for the repro.lint engine: suppressions, scoping, CLI."""

import json

from repro.lint.cli import JSON_SCHEMA_VERSION, build_engine, main
from repro.lint.engine import (
    SUPPRESSION_RULE_ID,
    LintConfig,
    LintEngine,
    Suppressions,
)
from repro.lint.rules import WallClockRule, default_rules

VIOLATION = "import time\nt = time.time()\n"


def engine_for(rule_ids=None, **config_kwargs):
    config = LintConfig(
        select=frozenset(rule_ids) if rule_ids else None, **config_kwargs
    )
    return LintEngine(default_rules(), config)


# ----------------------------------------------------------------------
# Suppressions.
# ----------------------------------------------------------------------
def test_justified_suppression_suppresses():
    source = "import time\nt = time.time()  # raidp: noqa[RDP001] -- test fixture\n"
    findings = engine_for(["RDP001"]).lint_source(source)
    assert findings == []


def test_bare_suppression_is_reported_and_does_not_suppress():
    source = "import time\nt = time.time()  # raidp: noqa[RDP001]\n"
    findings = engine_for(["RDP001"]).lint_source(source)
    rules = {f.rule for f in findings}
    assert SUPPRESSION_RULE_ID in rules  # the malformed noqa itself
    assert "RDP001" in rules  # ...and the violation still fires


def test_suppression_only_covers_named_rules():
    source = "import time\nt = time.time()  # raidp: noqa[RDP005] -- wrong rule\n"
    findings = engine_for(["RDP001"]).lint_source(source)
    assert [f.rule for f in findings] == ["RDP001"]


def test_multi_rule_suppression():
    suppressions = Suppressions(
        "x = 1  # raidp: noqa[RDP001, RDP002] -- shared fixture\n"
    )
    assert suppressions.suppresses(1, "RDP001")
    assert suppressions.suppresses(1, "RDP002")
    assert not suppressions.suppresses(1, "RDP003")
    assert not suppressions.suppresses(2, "RDP001")


def test_docstring_mention_of_noqa_is_not_a_suppression():
    source = '"""Docs show # raidp: noqa[RDP001] without effect."""\nx = 1\n'
    suppressions = Suppressions(source)
    assert len(suppressions) == 0
    assert suppressions.malformed == []


# ----------------------------------------------------------------------
# Engine configuration: select / ignore / allowlists / scoping.
# ----------------------------------------------------------------------
def test_select_restricts_rules():
    engine = engine_for(["RDP005"])
    assert [rule.id for rule in engine.rules] == ["RDP005"]
    assert engine.lint_source(VIOLATION) == []  # RDP001 not selected


def test_ignore_drops_rules():
    engine = engine_for(None, ignore=frozenset(["RDP001"]))
    assert "RDP001" not in [rule.id for rule in engine.rules]


def test_allowlist_exempts_whole_file():
    config = LintConfig(
        select=frozenset(["RDP001"]),
        allowlists={"RDP001": ("*/bench.py",)},
    )
    engine = LintEngine(default_rules(), config)
    assert engine.lint_source(VIOLATION, path="src/tools/bench.py") == []
    assert engine.lint_source(VIOLATION, path="src/sim/engine.py") != []


def test_path_scoped_rule_skips_out_of_scope_files():
    engine = engine_for(["RDP003"])
    source = "import threading\n"
    assert engine.lint_source(source, path="src/repro/sim/engine.py") != []
    assert engine.lint_source(source, path="src/repro/tools/cli.py") == []


def test_syntax_error_becomes_e999_finding():
    findings = engine_for().lint_source("def broken(:\n")
    assert [f.rule for f in findings] == ["E999"]
    assert findings[0].severity == "error"


def test_findings_are_sorted_by_location():
    source = "import time\na = time.time()\nb = time.time()\n"
    findings = engine_for(["RDP001"]).lint_source(source)
    assert [f.line for f in findings] == sorted(f.line for f in findings)


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
def test_cli_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main([str(target)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_violation_exits_one(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(VIOLATION)
    assert main([str(target)]) == 1
    out = capsys.readouterr().out
    assert "RDP001" in out


def test_cli_json_output_schema(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(VIOLATION)
    assert main(["--format", "json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == JSON_SCHEMA_VERSION
    assert payload["files_checked"] == 1
    assert payload["counts"]["error"] >= 1
    finding = payload["findings"][0]
    assert set(finding) == {"path", "line", "col", "rule", "severity", "message"}


def test_cli_show_source_prints_offending_line(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(VIOLATION)
    main(["--show-source", str(target)])
    out = capsys.readouterr().out
    assert "t = time.time()" in out


def test_cli_select_filters_rules(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(VIOLATION)
    assert main(["--select", "RDP005", str(target)]) == 0
    capsys.readouterr()


def test_cli_strict_fails_on_warnings(tmp_path, capsys):
    target = tmp_path / "keys.py"
    target.write_text("d = {}\nfor k in d.keys():\n    print(k)\n")
    assert main([str(target)]) == 0  # warnings alone pass...
    assert main(["--strict", str(target)]) == 1  # ...except under --strict
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RDP001", "RDP002", "RDP003", "RDP004", "RDP005", "RDP006"):
        assert rule_id in out


def test_cli_lints_directories_recursively(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\n")
    (package / "b.py").write_text(VIOLATION)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "2 files checked" in out


def test_build_engine_uses_repo_allowlists():
    engine = build_engine()
    assert engine.config.allowlisted("RDP001", "src/repro/tools/profile.py")
    assert not engine.config.allowlisted("RDP001", "src/repro/sim/engine.py")


def test_wall_clock_rule_is_unscoped():
    assert WallClockRule().applies_to("anything/at/all.py")
