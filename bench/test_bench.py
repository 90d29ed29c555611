"""Checks of the benchmark itself.  Not tier-1: ``python -m pytest bench/``.

One ``--smoke --traced`` run of all six workloads (k=1, 2 chaos seeds,
8 MC trials; about two minutes) is validated against ``BENCHMARK.json``;
the failure paths are driven in-process on the cheapest workload.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, SRC, load_spec

sys.path.insert(0, SRC)  # the in-process tests import the worker, which imports repro

PAPER_WORKLOADS = {"recovery", "dfs_write", "dfs_read"}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--traced", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    with open(out.parent / "trace.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    return report, trace, done.stdout


def test_results_carry_every_workload_and_metric_of_the_contract(smoke):
    report, _trace, stdout = smoke
    spec = load_spec()
    assert set(report["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert report["host"]["nproc"] and report["seed"] == 1
    for name, result in report["workloads"].items():
        assert result["ops"] > 0 and result["ops_failed"] == 0, result["problems"]
        assert result["samples"]["wall_s"] and result["k"] == 1
        for metric in spec["end_to_end"]:
            if metric["name"] == "paper_err_pct" and name not in PAPER_WORKLOADS:
                assert metric["name"] not in result["metrics"]
                continue
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0
            assert f"{metric['name']:<14}" in stdout  # printed by name, with its unit
        for metric in spec["per_layer"]:
            assert isinstance(result["layers"][metric["name"]], (int, float)), metric
    assert report["workloads"]["durability_mc"]["layers"]["sim.events_total"] == 0
    assert report["workloads"]["recovery"]["layers"]["hdfs.datanode.events"] == 0
    assert report["workloads"]["chaos_soak"]["layers"]["tools.chaos.run_s_p50"] > 0


def test_digests_repeat_across_repetitions_and_processes(smoke):
    report, _trace, _stdout = smoke
    for result in report["workloads"].values():
        # ops_failed == 0 already says: timed repetition == warm-up, and the
        # traced process reproduced the untraced process's digest.
        assert re.fullmatch(r"[0-9a-f]{64}", result["result_digest"])
        assert not [p for p in result["problems"] if "digest" in p]


def test_trace_spans_are_parented_and_tagged(smoke):
    _report, trace, _stdout = smoke
    spans = trace["spans"]
    assert {s["workload"] for s in spans} == {w["name"] for w in load_spec()["workloads"]}
    names = {s["name"] for s in spans}
    assert {"warmup", "repetition", "run_task", "merge", "Simulator.run",
            "sim.snapshot.restore", "sim.snapshot.capture", "run_chaos",
            "DurabilityEngine.run"} <= names
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] < span["id"]


def _run_worker_in_process(capsys):
    from bench import worker

    code = worker.main(
        ["--workload", "durability_mc", "--seed", "1", "--seconds", "0",
         "--trace", "0", "--smoke"]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_repetitions_of_one_seed_share_a_digest(capsys):
    _code, first = _run_worker_in_process(capsys)
    _code, second = _run_worker_in_process(capsys)
    assert first["result_digest"] == second["result_digest"]


def test_broken_shape_predicate_fails_the_run(capsys, monkeypatch, tmp_path):
    from bench import runner, workloads

    broken = dataclasses.replace(
        workloads.WORKLOADS["durability_mc"], shape=lambda rows: ["deliberately broken"]
    )
    monkeypatch.setitem(workloads.WORKLOADS, "durability_mc", broken)
    code, result = _run_worker_in_process(capsys)
    assert code != 0 and result["ops_failed"] > 0
    assert "shape: deliberately broken" in result["problems"]

    # ... and the parent turns a failed workload into its own non-zero exit.
    monkeypatch.setattr(runner, "spawn_worker", lambda *args: dict(result))
    assert runner.main(["--workload", "durability_mc", "--out", str(tmp_path / "r.json")]) != 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_wall_s_sums_each_tasks_fastest_time_over_the_host_level():
    from bench.worker import quiet_wall_s

    passes = [[1.0, 2.0, 0.1], [1.5, 1.0, 0.1], [0.9, 3.0, 0.2]]
    assert quiet_wall_s(passes, 1.0) == pytest.approx(0.9 + 1.0 + 0.1)
    assert quiet_wall_s(passes, 1.25) == pytest.approx(2.0 / 1.25)
    # A pass that lost a task cannot be lined up: the fastest whole pass.
    assert quiet_wall_s(passes + [[1.0, 0.1]], 1.0) == pytest.approx(1.1)


def test_probe_time_is_in_no_reported_time():
    from bench.trace import Spans, duration
    from bench.worker import PROBE, HostProbe, levels_since, pass_times

    spans = Spans("t")
    HostProbe(spans)
    with spans.span("repetition") as repetition:
        for _ in range(2):  # the second ends within PROBE_EVERY_S of the first's probe
            with spans.span("run_task"):
                with spans.span("Simulator.run"):  # not a task: no probe after it
                    pass
    (probe,) = [s for s in spans.records if s["name"] == PROBE]
    total, units = pass_times(spans, repetition)
    assert len(units) == 3 and total == pytest.approx(sum(units))
    assert total == pytest.approx(duration(repetition) - duration(probe))
    assert levels_since(spans, repetition) == probe["level"] > 0


def test_compare_verdicts():
    from bench.compare import verdict

    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10}

    def run(value, samples, noisy=False):
        return {"metrics": {"wall_s": {"value": value}}, "samples": {"wall_s": samples},
                "noisy": noisy}

    steady = [1.0, 1.01, 0.99, 1.0]
    assert verdict(run(1.0, steady), run(1.05, steady), metric)["verdict"] == "same"
    assert verdict(run(1.0, steady), run(1.2, steady), metric)["verdict"] == "worse"
    assert verdict(run(1.0, steady), run(0.8, steady), metric)["verdict"] == "better"
    assert verdict(run(1.0, steady), run(1.2, steady, noisy=True), metric)["verdict"] == "unresolved"
    assert verdict(run(1.0, [0.8, 1.0, 1.2, 1.4]), run(1.2, steady), metric)["verdict"] == "unresolved"
    memory = dict(metric, unit="MiB")  # host noise cannot excuse a memory regression
    assert verdict(run(1.0, steady), run(1.2, steady, noisy=True), memory)["verdict"] == "worse"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        load_spec()["command"] + ["--workload", "durability_mc", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
