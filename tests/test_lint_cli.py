"""CLI-layer tests: SARIF rendering, baselines, and the RDP007
stale-suppression rule.

The SARIF test validates the document structurally against the parts of
the 2.1.0 schema the code-scanning ingest actually requires (version,
runs, tool.driver.rules, results with physical locations); CI uploads
the same document to code scanning, which applies the full schema.
"""

import json

from repro.lint.baseline import (
    apply_baseline,
    fingerprint_findings,
    load_baseline,
    write_baseline,
)
from repro.lint.cli import build_engine, main
from repro.lint.engine import LintConfig, LintEngine
from repro.lint.sarif import SARIF_SCHEMA_URI, render_sarif

LEAKY = (
    "def worker(res, sim):\n"
    "    grant = yield res.request()\n"
    "    yield sim.sleep(1.0)\n"
    "    res.release(grant)\n"
)
SIM_PATH = "src/repro/sim/fake.py"


def leaky_findings():
    engine = build_engine(select=["RDP101"])
    return engine.lint_source(LEAKY, path=SIM_PATH), engine


# ----------------------------------------------------------------------
# SARIF.
# ----------------------------------------------------------------------
def test_sarif_document_structure():
    findings, engine = leaky_findings()
    document = json.loads(render_sarif(findings, engine.rules))
    assert document["version"] == "2.1.0"
    assert document["$schema"] == SARIF_SCHEMA_URI
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in ("error", "warning")
    (result,) = run["results"]
    assert result["ruleId"] == "RDP101"
    assert result["level"] == "error"
    assert result["message"]["text"]
    (location,) = result["locations"]
    region = location["physicalLocation"]["region"]
    assert region["startLine"] == 2 and region["startColumn"] >= 1
    assert location["physicalLocation"]["artifactLocation"]["uri"] == SIM_PATH
    assert "reproLintFingerprint/v1" in result["partialFingerprints"]
    # ruleIndex must agree with the rules table.
    assert driver["rules"][result["ruleIndex"]]["id"] == "RDP101"


def test_sarif_rule_table_covers_engine_level_ids():
    _findings, engine = leaky_findings()
    document = json.loads(render_sarif([], engine.rules))
    rule_ids = {r["id"] for r in document["runs"][0]["tool"]["driver"]["rules"]}
    # Engine-level diagnostics that have no Rule class still need
    # metadata for code scanning to attribute results.
    assert {"RDP000", "RDP007", "E999"} <= rule_ids


def test_sarif_via_cli_output_file(tmp_path, capsys):
    target = tmp_path / "leaky.py"
    target.write_text(LEAKY)
    out = tmp_path / "report.sarif"
    code = main(
        ["--format", "sarif", "--output", str(out), str(target)]
    )
    assert code == 0  # scoped rules skip a path outside src/repro
    document = json.loads(out.read_text())
    assert document["version"] == "2.1.0"
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# Baseline.
# ----------------------------------------------------------------------
def test_fingerprints_are_stable_and_occurrence_counted():
    findings, _ = leaky_findings()
    doubled = findings + findings  # same (path, rule, message) twice
    digests = [d for _f, d in fingerprint_findings(doubled)]
    assert digests[0] != digests[1]  # occurrence counter splits them
    again = [d for _f, d in fingerprint_findings(doubled)]
    assert digests == again


def test_baseline_roundtrip_filters_known_findings(tmp_path):
    findings, _ = leaky_findings()
    path = tmp_path / "baseline.json"
    count = write_baseline(findings, str(path))
    assert count == len(findings) == 1
    kept, matched = apply_baseline(findings, load_baseline(str(path)))
    assert kept == [] and matched == 1
    # A *new* finding with a different message is not absorbed.
    other = findings[0].__class__(**{**findings[0].as_dict(), "message": "new"})
    kept, matched = apply_baseline([other], load_baseline(str(path)))
    assert kept == [other] and matched == 0


def test_missing_baseline_is_empty():
    assert load_baseline("/nonexistent/baseline.json") == {}


def test_cli_baseline_gate(tmp_path):
    target = tmp_path / "src" / "repro" / "sim" / "leaky.py"
    target.parent.mkdir(parents=True)
    target.write_text(LEAKY)
    baseline = tmp_path / "baseline.json"
    # Unbaselined: the leak fails the run.
    assert main([str(target)]) == 1
    # Snapshot, then the same findings pass under the baseline.
    assert main(["--write-baseline", str(baseline), str(target)]) == 0
    assert main(["--baseline", str(baseline), str(target)]) == 0


# ----------------------------------------------------------------------
# RDP007 -- stale suppressions.
# ----------------------------------------------------------------------
def test_rdp007_flags_suppression_that_no_longer_fires():
    engine = build_engine()
    findings = engine.lint_source(
        "x = 1  # raidp: noqa[RDP001] -- once hid a wall-clock call\n",
        path=SIM_PATH,
    )
    assert [f.rule for f in findings] == ["RDP007"]
    assert "stale suppression" in findings[0].message


def test_rdp007_quiet_while_the_suppression_still_earns_its_keep():
    engine = build_engine()
    findings = engine.lint_source(
        "import time\n"
        "t = time.time()  # raidp: noqa[RDP001] -- fixture exercising the clock\n",
        path=SIM_PATH,
    )
    assert findings == []


def test_rdp007_ignores_rules_that_did_not_run():
    # Under --select RDP101 the RDP001 suppression was never exercised,
    # so it is not stale -- it just did not run.
    engine = build_engine(select=["RDP101", "RDP007"])
    findings = engine.lint_source(
        "x = 1  # raidp: noqa[RDP001] -- judged by the full run only\n",
        path=SIM_PATH,
    )
    assert findings == []


def test_rdp007_is_itself_suppressible():
    engine = build_engine()
    findings = engine.lint_source(
        "x = 1  # raidp: noqa[RDP001, RDP007] -- kept while a revert is staged\n",
        path=SIM_PATH,
    )
    assert findings == []
