"""Span tracing: emission, determinism, export round-trips, breakdowns.

The load-bearing guarantee is the determinism test: running the exact
same workload with tracing on and off must produce bitwise-identical
simulation results, because the tracer only appends to a Python list --
it never touches the event heap or the tie-breaking sequence counter.
"""

import json

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager, RecoveryOptions
from repro.hdfs.config import DfsConfig
from repro.obs.export import (
    load_trace,
    recovery_breakdown,
    render_summary,
    summarize,
    write_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    active_tracer,
    capture,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.workloads.dfsio import dfsio_read, dfsio_write
from tests.oracles import node_traffic


# ----------------------------------------------------------------------
# Tracer mechanics.
# ----------------------------------------------------------------------
def test_complete_instant_count_emission():
    tracer = Tracer()
    tracer.register_run("r0")
    tracer.complete("disk", "read", 1.0, 2.5, disk="n0-d0")
    tracer.instant("fault", "disk_fail", 3.0, target="n1")
    tracer.count("journal", "n0", 3.5, 2)
    assert len(tracer) == 3
    phases = [event.phase for event in tracer.events]
    assert phases == ["X", "i", "C"]
    span = tracer.events[0]
    assert span.dur == pytest.approx(1.5)
    assert span.end == pytest.approx(2.5)
    assert span.attrs == {"disk": "n0-d0"}
    # Sequence numbers are strictly increasing: stable sort key.
    seqs = [event.seq for event in tracer.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == 3


def test_category_filter_drops_unlisted_categories():
    tracer = Tracer(categories={"recovery"})
    tracer.complete("disk", "read", 0.0, 1.0)
    tracer.complete("recovery", "recover", 0.0, 1.0)
    tracer.instant("net", "resolve", 0.5)
    assert [event.category for event in tracer.events] == ["recovery"]


def test_category_filter_rejects_unregistered_categories():
    with pytest.raises(ValueError, match="fualt"):
        Tracer(categories=["recovery", "fualt"])


@pytest.mark.parametrize("categories", [None, {"recovery"}], ids=["all", "filtered"])
def test_emission_under_unregistered_category_raises(categories):
    """Also where the filter would drop the event anyway."""
    tracer = Tracer(categories=categories)
    with pytest.raises(ValueError, match="recovry"):
        tracer.complete("recovry", "recover", 0.0, 1.0)
    with pytest.raises(ValueError, match="recovry"):
        tracer.instant("recovry", "detect", 0.5)
    with pytest.raises(ValueError, match="recovry"):
        tracer.count("recovry", "n0", 0.5, 1)
    assert len(tracer) == 0


def test_experiments_cli_refuses_an_unregistered_trace_category(tmp_path, capsys):
    from repro.experiments.runner import main

    trace = tmp_path / "t.json"
    with pytest.raises(SystemExit) as exited:
        main(["table2", "--trace", str(trace), "--trace-categories", "recovery,fualt"])
    assert exited.value.code == 2
    assert "fualt" in capsys.readouterr().err
    assert not trace.exists()


def test_experiments_cli_refuses_trace_categories_without_trace(capsys):
    """A category filter with no trace to filter would trace nothing and
    still exit 0: the flag alone is a usage error, before any run."""
    from repro.experiments.runner import main

    with pytest.raises(SystemExit) as exited:
        main(["fig1", "--trace-categories", "fault"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert "--trace-categories needs --trace" in captured.err and captured.out == ""


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert len(NULL_TRACER) == 0
    # Nothing reaches it past the ``enabled`` branch: it cannot record.
    for method in ("complete", "instant", "count", "register_run"):
        assert not hasattr(NULL_TRACER, method)


def test_activation_scoping():
    assert active_tracer() is NULL_TRACER
    with capture() as captured:
        assert active_tracer() is captured
        with capture() as nested:
            assert active_tracer() is nested
        assert active_tracer() is captured
    assert active_tracer() is NULL_TRACER


def test_simulator_binds_the_active_tracer():
    with capture() as tracer:
        sim_a = Simulator()
        sim_b = Simulator()
    untraced = Simulator()
    assert sim_a.trace is tracer and sim_b.trace is tracer
    assert untraced.trace is NULL_TRACER
    # Each simulator registered its own run index.
    assert len(tracer.run_labels) == 2


# ----------------------------------------------------------------------
# Determinism: tracing must not perturb the simulation.
# ----------------------------------------------------------------------
def _workload_fingerprint(seed=42):
    """A smoke-scale write+read workload reduced to a hashable tuple."""
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(replication=2),
        raidp=RaidpConfig(),
        payload_mode="tokens",
        seed=seed,
    )
    write = dfsio_write(dfs, 256 * units.MiB)
    read = dfsio_read(dfs)
    placements = tuple(
        (loc.block.name, tuple(loc.datanodes), loc.sc_id, loc.slot)
        for loc in dfs.namenode.all_blocks()
    )
    traffic = tuple(
        (name, stats.bytes_sent, stats.bytes_received,
         stats.flows_started, stats.flows_finished)
        for name, stats in sorted(node_traffic(dfs.switch).items())
    )
    return (write.runtime, write.network_bytes, read.runtime, placements, traffic)


def test_tracing_does_not_change_the_simulation():
    """Bitwise-identical results with tracing off, on, and off again."""
    before = _workload_fingerprint()
    with capture() as tracer:
        traced = _workload_fingerprint()
    after = _workload_fingerprint()
    assert before == traced == after
    assert len(tracer) > 0  # the traced run actually recorded events


def test_traced_runs_are_reproducible():
    """Two traced runs produce identical event streams."""
    def run():
        with capture() as tracer:
            _workload_fingerprint()
        return [
            (e.run, e.seq, e.phase, e.category, e.name, e.ts, e.dur, e.attrs)
            for e in tracer.events
        ]

    assert run() == run()


# ----------------------------------------------------------------------
# Export round-trips.
# ----------------------------------------------------------------------
def _sample_tracer():
    tracer = Tracer()
    tracer.register_run("sample")
    tracer.complete("disk", "read", 0.25, 1.75, disk="n0-d0", bytes=4096)
    tracer.instant("fault", "disk_fail", 2.0, target="n1")
    tracer.count("journal", "n0", 2.5, 3)
    return tracer


def test_jsonl_round_trip(tmp_path):
    """The extension picks no format: a ``.jsonl`` path holds Chrome JSON."""
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.jsonl")
    assert write_trace(tracer, path) == 3
    with open(path) as fh:
        assert "traceEvents" in json.load(fh)
    events, _metadata = load_trace(path)
    original = [(e.run, e.phase, e.category, e.name, e.attrs) for e in tracer.events]
    loaded = [(e.run, e.phase, e.category, e.name, e.attrs) for e in events]
    assert original == loaded
    assert [e.ts for e in events] == pytest.approx([e.ts for e in tracer.events])
    assert [e.dur for e in events] == pytest.approx([e.dur for e in tracer.events])


def test_chrome_export_shape_and_round_trip(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.json")
    assert write_trace(tracer, path) == 3
    with open(path) as fh:
        payload = json.load(fh)
    records = payload["traceEvents"]
    # Metadata names the process after the registered run label.
    meta = [r for r in records if r["ph"] == "M"]
    assert any(
        r["name"] == "process_name" and r["args"]["name"] == "sim sample"
        for r in meta
    )
    spans = [r for r in records if r["ph"] == "X"]
    assert spans[0]["ts"] == pytest.approx(0.25e6)  # microseconds
    assert spans[0]["dur"] == pytest.approx(1.5e6)
    instants = [r for r in records if r["ph"] == "i"]
    assert instants[0]["s"] == "t"
    # No metadata, no ``otherData``: the export is the plain format.
    assert set(payload) == {"traceEvents", "displayTimeUnit"}
    # Loading rescales back to seconds and drops metadata events.
    events, metadata = load_trace(path)
    assert metadata == {}
    assert len(events) == 3
    assert events[0].ts == pytest.approx(0.25)
    assert events[0].dur == pytest.approx(1.5)


def test_summarize_aggregates_by_category_and_name():
    tracer = _sample_tracer()
    tracer.complete("disk", "read", 2.0, 3.0)
    table = summarize(tracer.events)
    assert table["disk.read"]["count"] == 2
    assert table["disk.read"]["total_s"] == pytest.approx(2.5)
    assert table["disk.read"]["max_s"] == pytest.approx(1.5)
    assert table["fault.disk_fail"]["count"] == 1


def test_summary_folds_counter_tracks_into_one_row_per_category():
    """Counter events are one row per category with its track count,
    not one row per track."""
    tracer = _sample_tracer()
    tracer.count("journal", "n1", 2.5, 1)
    tracer.count("journal", "n0", 3.0, 4)
    table = summarize(tracer.events)
    assert table["journal"] == {
        "phase": "C", "count": 3, "total_s": 0.0, "max_s": 0.0, "tracks": 2,
    }
    assert not any(key.startswith("journal.") for key in table)
    rendered = render_summary(tracer.events)
    assert "journal (2 counter tracks)" in rendered and "journal." not in rendered


# ----------------------------------------------------------------------
# Recovery breakdowns on a real cluster.
# ----------------------------------------------------------------------
def _recovery_cluster(seed=3):
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=2,
        payload_mode="bytes",
        seed=seed,
    )

    def workload():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/t/f{index}", 3 * units.MiB)

    dfs.sim.run_process(workload())
    return dfs


def _sharing_pair(dfs):
    return next(
        (x, y)
        for x in dfs.layout.disks
        for y in dfs.layout.disks
        if x < y and dfs.layout.shared(x, y) is not None
    )


@pytest.mark.parametrize("size", [1, 2])
def test_one_recovery_span_carries_the_dead_set(size):
    """A lone disk and a sharing pair both recover under one
    ``recovery.recover`` span that names the dead set; ``raidpctl
    trace`` prints it."""
    with capture() as tracer:
        dfs = _recovery_cluster()
        dead = _sharing_pair(dfs)[:size]
        report = RecoveryManager(dfs).recover(dead)
    (span,) = [e for e in tracer.events if e.name == "recover"]
    assert span.category == "recovery"
    assert span.attrs["dead"] == list(dead)
    assert span.attrs["reconstructed"] == report.reconstructed
    assert len(report.reconstructed) == size - 1
    (item,) = recovery_breakdown(tracer.events)
    assert item["attrs"]["dead"] == list(dead)
    assert f"recovery run=0 dead={list(dead)}" in render_summary(tracer.events)


def test_double_failure_phases_sum_to_reported_duration():
    """The acceptance property behind ``raidpctl trace`` on table2: for a
    reconstruction-only double recovery, the phase spans exactly cover
    the report's duration."""
    with capture() as tracer:
        dfs = _recovery_cluster()
        manager = RecoveryManager(dfs)
        report = manager.recover(
            _sharing_pair(dfs), RecoveryOptions(), reconstruct_only=True
        )
    breakdowns = recovery_breakdown(tracer.events)
    assert len(breakdowns) == 1
    item = breakdowns[0]
    assert item["total_s"] == pytest.approx(report.duration)
    reconstruct = item["phases"]["reconstruct"]
    assert reconstruct["sum_s"] == pytest.approx(report.duration)
    assert item["coverage"] == pytest.approx(1.0)
    assert [item["superchunks"][0]["sc"]] == report.reconstructed
    text = render_summary(tracer.events)
    assert "coverage 100.0%" in text


def test_single_failure_phase_spans_cover_remirrors():
    with capture() as tracer:
        dfs = _recovery_cluster()
        manager = RecoveryManager(dfs)
        victim = dfs.layout.disks[0]
        report = manager.recover((victim,))
    breakdowns = recovery_breakdown(tracer.events)
    assert len(breakdowns) == 1
    item = breakdowns[0]
    assert item["total_s"] == pytest.approx(report.duration)
    remirror = item["phases"]["remirror"]
    assert remirror["count"] == len(report.remirrored)
    # Remirrors run in parallel: the straight sum may exceed the window,
    # the interval union never does.
    assert remirror["union_s"] <= item["total_s"] + 1e-9
    assert item["phases"]["plan"]["count"] == 1
