"""CLI-layer tests: report files, the retired report options, and the
RDP007 stale-suppression rule.
"""

import json

import pytest

from repro.lint.cli import build_engine, main

LEAKY = (
    "def worker(res, sim):\n"
    "    grant = yield res.request()\n"
    "    yield sim.sleep(1.0)\n"
    "    res.release(grant)\n"
)
SIM_PATH = "src/repro/sim/fake.py"


# ----------------------------------------------------------------------
# Report output.
# ----------------------------------------------------------------------
def test_json_via_cli_output_file(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "sim" / "leaky.py"
    target.parent.mkdir(parents=True)
    target.write_text(LEAKY)
    out = tmp_path / "report.json"
    argv = ["--select", "RDP101", "--format", "json", "--output", str(out)]
    assert main(argv + [str(target)]) == 1
    document = json.loads(out.read_text())
    assert [f["rule"] for f in document["findings"]] == ["RDP101"]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "sarif"],
        ["--baseline", "baseline.json"],
        ["--write-baseline", "baseline.json"],
    ],
)
def test_retired_report_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["src/"])
    assert exit_info.value.code == 2


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
