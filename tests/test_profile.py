"""Tests for the deterministic hot-path profiler.

The profiler's contract (see :mod:`repro.obs.simprofile`): attribution
is an *observer* -- a profiled run executes the bit-identical schedule
of an unprofiled one -- and the deterministic columns (events, simulated
seconds, bucket keys) reproduce exactly across repeated profiled runs.
Wall-clock samples are host measurements and are only checked for
well-formedness.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import simprofile, timeseries
from repro.obs.simprofile import SimProfiler, classify_code
from repro.obs.taxonomy import is_registered
from repro.units import MiB
from tests.oracles import discrete_lane


def _dfsio_run():
    """One small multi-layer workload; returns (runtime, journal stats)."""
    from repro.experiments.common import Scale, build_raidp
    from repro.workloads.dfsio import dfsio_write

    dfs = build_raidp(Scale(), seed=1)
    result = dfsio_write(dfs, 64 * MiB)
    return (result.runtime, dfs.sim.now, dfs.sim._seq)


@pytest.mark.parametrize("sampled", [False, True], ids=["profiled", "sampled+profiled"])
def test_profiled_run_is_bitwise_identical_to_unprofiled(sampled):
    """The one dispatch loop, with the profiler on and with the sampler
    splitting it at ticks as well, runs the bare run's schedule."""
    baseline = _dfsio_run()
    with simprofile.capture() as profiler:
        if sampled:
            with timeseries.capture(interval=0.01) as sampler:
                profiled = _dfsio_run()
            assert sampler._ticks > 1  # the loop was split at ticks
        else:
            profiled = _dfsio_run()
    assert profiled == baseline
    assert profiler.totals()["events"] > 0


def test_deterministic_columns_reproduce_exactly():
    with simprofile.capture() as first:
        _dfsio_run()
    with simprofile.capture() as second:
        _dfsio_run()

    def deterministic(profiler):
        return {
            key: (stats.events, stats.sim_seconds)
            for key, stats in profiler.buckets.items()
        }

    assert deterministic(first) == deterministic(second)


def test_classify_code_maps_modules_to_registered_categories():
    from repro.core import recovery
    from repro.sim import disk, network

    cases = [
        (disk.Disk._io, "disk", "disk:Disk._io"),
        (network.Switch.transfer, "net", "network:Switch.transfer"),
        (
            recovery.RecoveryManager.failure_body,
            "recovery",
            "recovery:RecoveryManager.failure_body",
        ),
        (classify_code, "engine", "simprofile:classify_code"),
    ]
    for func, category, label in cases:
        got_category, got_label = classify_code(func.__code__)
        assert got_category == category
        assert got_label == label
        assert is_registered(got_category)


def test_classify_code_never_invents_categories():
    code = compile("pass", "/somewhere/else/entirely.py", "exec")
    category, label = classify_code(code)
    assert category == "engine"
    assert is_registered(category)


def test_ranked_report_orders_by_wall_then_events():
    profiler = SimProfiler()
    profiler.record(("disk", "disk:a"), 1.0, 0.5)
    profiler.record(("net", "network:b"), 1.0, 2.0)
    profiler.record(("hdfs", "client:c"), 1.0, 0.5)
    profiler.record(("hdfs", "client:c"), 1.0, 0.0)
    ranked = profiler.ranked()
    assert [b.callsite for b in ranked] == ["network:b", "client:c", "disk:a"]


def test_run_slice_runs_the_first_tasks():
    from repro.tools.profile import run_slice

    tasks_run, wall = run_slice("table2", max_tasks=2)
    assert tasks_run == 2
    assert wall > 0.0


def test_run_slice_stays_in_process_under_raidp_jobs(monkeypatch):
    """A whole run is profiled in this process even when ``RAIDP_JOBS``
    asks for workers, whose events the profiler could not see."""
    from repro.experiments.parallel import JOBS_ENV_VAR
    from repro.tools.profile import run_slice

    monkeypatch.setenv(JOBS_ENV_VAR, "2")
    with simprofile.capture() as profiler:
        tasks_run, _wall = run_slice("table2")
    assert tasks_run == -1
    assert profiler.totals()["events"] > 0


def test_cli_report_and_json_export(tmp_path, capsys, monkeypatch):
    """On the per-chunk oracle (``tests.oracles.discrete_lane``): a
    175k-event slice, whose exact network work is the pinned footer."""
    from repro.tools.profile import main

    discrete_lane(monkeypatch)
    out = tmp_path / "profile.json"
    assert main(["table2", "--tasks", "1", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "top hot paths: table2" in text
    report = json.loads(out.read_text())
    assert report["experiment"] == "table2"
    assert report["tasks"] == 1
    assert report["totals"]["events"] > 0
    assert report["buckets"], "expected at least one hot-path bucket"
    for bucket in report["buckets"]:
        assert is_registered(bucket["category"])
    # The footer reports work, not only wall shares: the exact network
    # counters of table2's first task (byte-range, 4 MB chunks, 10 Gbps).
    assert (
        "work: net_solves_total=46,043, net_deadline_pushes_total=593,930, "
        "net_timer_idle_total=15,520"
    ) in text
    assert report["work"]["net_solves_total"] == 46043
    assert report["work"]["net_timer_fires_total"] == 38548
    assert report["totals"]["events"] == 175465


def test_step_summary_written_when_env_set(tmp_path, monkeypatch):
    """The same slice on the fluid lane: each stream's first chunk plus
    one body, so the footer counts a few dozen solves."""
    from repro.tools.profile import main

    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert main(["table2", "--tasks", "1"]) == 0
    content = summary.read_text()
    assert "| # | category | callsite |" in content
    assert (
        "`work: net_solves_total=30, net_deadline_pushes_total=152, "
        "net_timer_idle_total=1`"
    ) in content
