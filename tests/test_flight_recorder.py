"""The cluster flight recorder: sampler and invariant auditor.

Covers three contracts:

- **observer-only**: sampled/audited runs are bitwise-identical to bare
  runs (table2 rows, chaos fingerprints, engine event sequences);
- **correct telemetry**: the sampler's counter tracks in the trace hold
  windowed percentiles that match the stats kernel, and they round-trip
  through the Chrome export with the run's verdict as metadata;
- **useful verdicts**: the auditor catches seeded corruption and stays
  silent on healthy clusters.
"""

import contextlib

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.errors import AuditError
from repro.hdfs.config import DfsConfig
from repro.obs import audit as audit_mod
from repro.obs import timeseries as ts_mod
from repro.obs import tracer as tracer_mod
from repro.obs.metrics import read_cluster
from repro.obs.timeseries import percentile_from_buckets
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram


def _cluster(seed=11, nodes=8):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(),
        superchunk_size=4 * units.MiB,
        seed=seed,
    )


def _write_files(dfs, nbytes=2 * units.MiB):
    def workload():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/fr/f{index}", nbytes)

    dfs.sim.run_process(workload())


# ----------------------------------------------------------------------
# The sampler's output: telemetry counter tracks in the trace.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def recording(interval):
    """A tracer and a sampler, as ``chaos --trace`` switches them on."""
    with tracer_mod.capture() as tracer, ts_mod.capture(interval) as sampler:
        yield tracer, sampler


def _telemetry(tracer):
    return [e for e in tracer.events if e.phase == "C" and e.category == "telemetry"]


def track(tracer, name, run=None):
    """One counter track's ``(ts, value)`` points, oldest first."""
    return [
        (e.ts, e.attrs["value"])
        for e in _telemetry(tracer)
        if e.name == name and (run is None or e.run == run)
    ]


def track_names(tracer):
    return sorted({e.name for e in _telemetry(tracer)})


def rows(tracer):
    """The ticks as ``(run, ts) -> {series: value}``, in emission order."""
    table = {}
    for e in _telemetry(tracer):
        table.setdefault((e.run, e.ts), {})[e.name] = e.attrs["value"]
    return table


# ----------------------------------------------------------------------
# Sampler: tick grid, counters/gauges, windowed percentiles.
# ----------------------------------------------------------------------
def _watch_fake(monkeypatch, reader):
    """Point the sampler's one reader at ``reader()`` for synthetic series."""
    monkeypatch.setattr(ts_mod, "read_cluster", lambda dfs, monitor: reader())


def test_sampler_grid_and_counter_series(monkeypatch):
    box = [0]
    _watch_fake(monkeypatch, lambda: ({"ops": float(box[0])}, {}))
    with recording(0.5) as (tracer, sampler):
        sim = Simulator()
        sampler.watch(None)

        def ticker():
            for _ in range(9):
                box[0] += 1
                yield sim.timeout(0.3)

        sim.run_process(ticker())
    # Ticks at 0.5, 1.0, ... while the schedule is non-empty; the body
    # spans 2.7 simulated seconds, so the 2.5 tick is the last one.
    assert track(tracer, "ops") == [
        (0.5, 2.0), (1.0, 4.0), (1.5, 6.0), (2.0, 7.0), (2.5, 9.0)
    ]
    assert len(_telemetry(tracer)) == 5  # one counter event per series and tick


def test_an_untraced_sampler_reads_nothing_but_runs_its_hooks(monkeypatch):
    """Without an enabled tracer nothing would keep a reading, so the
    sampler takes none; the auditor's tick probes run either way."""
    reads, hooked = [], []
    _watch_fake(monkeypatch, lambda: reads.append(1) or ({"ops": 1.0}, {}))
    with ts_mod.capture(interval=0.5) as sampler:
        sim = Simulator()
        sampler.watch(None)
        sampler.on_sample(lambda _sim, now: hooked.append(now))
        sim.run_process(_sleeper(sim, 1.2))
    assert reads == [1]  # the watch() baseline only
    assert hooked == [0.5, 1.0]


def test_sampler_windowed_percentiles_match_stats_kernel(monkeypatch):
    hist = Histogram()
    _watch_fake(monkeypatch, lambda: ({}, {"lat": hist}))
    with recording(1.0) as (tracer, sampler):
        sim = Simulator()
        sampler.watch(None)

        window1 = {}

        def body():
            for value in (0.002, 0.004, 0.008, 0.02, 0.02, 0.3):
                hist.observe(value)
            window1["counts"] = list(hist.counts)
            window1["max"] = hist.max
            # Events at exactly a tick instant fire *before* the sample,
            # so the second observation lands strictly between ticks.
            yield sim.timeout(1.5)
            hist.observe(0.05)  # t=1.5: tick 2's window is just this one
            yield sim.timeout(1.0)  # keeps the schedule alive past t=2.0

        sim.run_process(body())
    points = dict(track(tracer, "lat:p50"))
    p99 = dict(track(tracer, "lat:p99"))
    counts = dict(track(tracer, "lat:count"))
    assert counts == {1.0: 6.0, 2.0: 1.0}
    # Window 1 is the whole histogram-so-far, so the sampled values must
    # equal the stats kernel applied to the tick-1 cumulative buckets.
    for q, series in ((0.5, points), (0.99, p99)):
        assert series[1.0] == pytest.approx(
            percentile_from_buckets(
                hist.bounds, window1["counts"], q, window1["max"]
            )
        )
    # Window 2 contains only the 0.05 observation: its p50 lands inside
    # that observation's bucket, not anywhere near window 1's median.
    lo = max(b for b in hist.bounds if b < 0.05)
    hi = min(b for b in hist.bounds if b >= 0.05)
    assert lo < points[2.0] <= hi


def test_an_empty_window_writes_only_its_count(monkeypatch):
    """No observations between two ticks: the window has a count of 0
    and no mean or percentile, which would read as zero latency."""
    hist = Histogram()
    _watch_fake(monkeypatch, lambda: ({}, {"lat": hist}))
    with recording(1.0) as (tracer, sampler):
        sim = Simulator()
        sampler.watch(None)

        def body():
            hist.observe(0.02)
            yield sim.timeout(2.5)  # the window ending at t=2.0 is empty

        sim.run_process(body())
    assert dict(track(tracer, "lat:count")) == {1.0: 1.0, 2.0: 0.0}
    for window in ("mean", "p50", "p99"):
        assert [t for t, _ in track(tracer, f"lat:{window}")] == [1.0], window


def test_sampler_aggregates_labeled_histograms():
    """Per-disk labeled histograms roll up into a cluster-wide series."""
    with recording(0.05) as (tracer, sampler):
        dfs = _cluster()
        sampler.watch(dfs)
        _write_files(dfs)
    agg = track(tracer, "disk_io_latency:count")
    assert agg, "aggregate series missing"
    per_disk_total = sum(
        value
        for name in track_names(tracer)
        if name.startswith("disk_io_latency{") and name.endswith(":count")
        for _, value in track(tracer, name)
    )
    assert sum(v for _, v in agg) == pytest.approx(per_disk_total)
    assert any(v > 0 for _, v in track(tracer, "disk_io_latency:p99"))


def test_a_restored_clusters_first_window_counts_only_what_follows_the_watch():
    """A cluster restored from a written snapshot carries the writing
    phase's histograms: the first window after ``watch()`` diffs against
    them, not against zero, so the windows add up to the new I/Os."""
    from repro.sim import snapshot

    def ios(dfs):
        return sum(sum(dn.disk.io_latency.counts) for dn in dfs.datanodes)

    written = _cluster()
    _write_files(written)
    blob = snapshot.capture(written)
    with recording(0.05) as (tracer, sampler):
        dfs = snapshot.restore(blob)
        before = ios(dfs)
        sampler.watch(dfs)

        def rewrite():
            for index, client in enumerate(dfs.clients):
                yield from client.write_file(f"/fr/g{index}", units.MiB)
            yield dfs.sim.timeout(1.0)  # a tick after the last I/O closes its window

        dfs.sim.run_process(rewrite())
    windows = [count for _ts, count in track(tracer, "disk_io_latency:count")]
    assert before > 0 and windows[0] > 0
    assert sum(windows) == ios(dfs) - before


# ----------------------------------------------------------------------
# Observer-only: bitwise identity.
# ----------------------------------------------------------------------
def test_sampled_run_is_bitwise_identical():
    def fingerprint(sampled):
        if sampled:
            with recording(0.25) as (tracer, sampler):
                dfs = _cluster(seed=5)
                sampler.watch(dfs)
                _write_files(dfs)
            assert track(tracer, "disk_io_latency:count")
        else:
            dfs = _cluster(seed=5)
            _write_files(dfs)
        readings, histograms = read_cluster(dfs)
        latency = {key: (h.counts, h.sum, h.max) for key, h in histograms.items()}
        return (dfs.sim.now, dfs.sim._seq, readings, latency)

    assert fingerprint(False) == fingerprint(True)


def test_table2_rows_bitwise_identical_under_flight_recorder():
    """One table2 sweep point, bare vs sampled+audited: same row."""
    from repro.experiments import table2_recovery as t2

    key = next(
        key for key in t2.tasks()
        if key[0] == "raidp" and key[2] == 64 * units.MiB
    )

    bare = t2.run_task(key)
    with recording(0.5), audit_mod.capture(fail_fast=True):
        recorded = t2.run_task(key)
    assert recorded == bare


def test_chaos_fingerprint_bitwise_identical_and_healthy():
    """The acceptance drill: one chaos schedule, bare vs traced and
    sampled as ``chaos --trace`` runs it.

    The fingerprints must match bit-for-bit; the recorded run's trace
    must carry the key latency, exposure and repair tracks, and its
    audit summary zero un-waived violations with the ticks audited.
    """
    from repro.tools.chaos import run_chaos

    bare = run_chaos(seed=20260809)
    with recording(0.5) as (tracer, _sampler):
        recorded = run_chaos(seed=20260809)
    assert bare.ok, bare.problems
    assert recorded.ok, recorded.problems
    assert recorded.fingerprint == bare.fingerprint
    assert recorded.audit["unwaived"] == bare.audit["unwaived"] == 0
    for name in ("disk_io_latency:p50", "disk_io_latency:p99", "blocks_at_risk",
                 "repair_bytes_total"):
        assert track(tracer, name), name
    assert max(v for _, v in track(tracer, "disk_io_latency:p99")) > 0
    assert track(tracer, "repair_bytes_total")[-1][1] > 0
    # Every tick audited, on top of the detection/recovery probes.
    assert recorded.audit["audits"] == bare.audit["audits"] + len(rows(tracer))


def test_soak_series_names_and_sampled_rows_are_pinned():
    """The flight recorder's artifact, value for value: the default
    soak's 243 series (named here from the cluster's components, not
    from the reader) and a float-hex digest of its 61 sampled rows, as
    measured before the registry of views was replaced by the reader,
    then re-pinned when empty histogram windows stopped writing
    percentiles of 0.0 (b5f99c0e...) and when departures began resuming
    the fair-share solve, which moved only ``net_fill_steps_total``
    (5c273ded...)."""
    import hashlib

    from repro.tools.chaos import build_cluster, run_chaos

    dfs = build_cluster(805381)
    windows = ("count", "mean", "p50", "p99")
    expected = {
        "blocks_at_risk", "net_active_flows", "net_bytes_total",
        "net_solves_total", "net_fill_steps_total", "net_deadline_pushes_total",
        "net_timer_fires_total", "net_timer_idle_total",
        "repair_bytes_total", "recoveries_total", "recovery_errors_total",
        *(f"disk_io_latency:{w}" for w in windows),
    }
    for index, datanode in enumerate(dfs.datanodes):
        disk, journal = datanode.disk.name, datanode.lstors.journal.name
        expected |= {
            f"disk_{name}{{disk={disk}}}"
            for name in ("reads", "writes", "bytes_read", "bytes_written", "seeks",
                         "queue_depth")
        }
        expected |= {f"disk_io_latency{{disk={disk}}}:{w}" for w in windows}
        expected |= {f"dn_blocks_{name}{{dn={datanode.name}}}" for name in ("read", "written")}
        expected |= {
            f"journal_{name}{{journal={journal}}}"
            for name in ("outstanding", "appends", "clears", "used_bytes")
        }
        expected |= {
            f"client_{name}{{client={index}}}"
            for name in ("pipeline_recoveries", "read_failovers", "degraded_reads")
        }
    with recording(0.5) as (tracer, _sampler):
        assert run_chaos(805381).ok
    assert track_names(tracer) == sorted(expected) and len(expected) == 243
    digest = hashlib.sha256()
    ticks = rows(tracer)
    for (run, ts), row in ticks.items():
        assert list(row) == sorted(row)  # each tick in sorted-name order
        digest.update(f"{run} {ts.hex()}".encode())
        for name in sorted(row):
            digest.update(f" {name}={row[name].hex()}".encode())
        digest.update(b"\n")
    assert len(ticks) == 61
    assert digest.hexdigest() == (
        "9f13c3efb6828c260f8fc96635f92c7783f6de391dbd4653b244473f2187bfc7"
    )


def test_a_new_run_drops_the_last_runs_registries_and_hooks(monkeypatch):
    """One ambient sampler, two simulations (a two-run soak): the second
    run's ticks must not keep sampling -- or auditing -- the finished
    first cluster."""
    ticks = {"first": 0, "second": 0}
    monkeypatch.setattr(ts_mod, "read_cluster", lambda label, monitor: ({label: 1.0}, {}))

    def run(label):
        sim = Simulator()
        sampler.watch(label)
        sampler.on_sample(lambda _sim, _now: ticks.__setitem__(label, ticks[label] + 1))
        sim.run_process(_sleeper(sim, 1.2))

    with recording(0.5) as (tracer, sampler):
        run("first")
        run("second")
    assert ticks == {"first": 2, "second": 2}
    assert [ts for ts, _ in track(tracer, "first", run=1)] == []
    assert [ts for ts, _ in track(tracer, "second", run=1)] == [0.5, 1.0]


def _sleeper(sim, seconds):
    yield sim.timeout(seconds)


# ----------------------------------------------------------------------
# Export: one Chrome trace, counter tracks and verdict included.
# ----------------------------------------------------------------------
def test_trace_exports_carry_telemetry_samples(tmp_path):
    """The Chrome export round-trips the counter tracks, and the
    tracer's metadata as ``otherData``."""
    import json

    from repro.obs.export import load_trace, write_trace

    with recording(0.05) as (tracer, sampler):
        dfs = _cluster()
        sampler.watch(dfs)
        _write_files(dfs)
    telemetry = _telemetry(tracer)
    assert telemetry and {e.name for e in telemetry} >= {"disk_io_latency:p99"}
    tracer.metadata.update(ok=True, audit={"unwaived": 0})

    chrome = str(tmp_path / "run.json")
    assert write_trace(tracer, chrome) == len(tracer.events)
    with open(chrome) as fh:
        assert json.load(fh)["otherData"] == tracer.metadata
    # Chrome rescales to microseconds; the counter values come back
    # exactly, the timestamps approximately.
    events, metadata = load_trace(chrome)
    loaded = [e for e in events if e.category == "telemetry"]
    assert [(e.phase, e.name, e.attrs) for e in loaded] == [
        (e.phase, e.name, e.attrs) for e in telemetry
    ]
    assert [e.ts for e in loaded] == pytest.approx([e.ts for e in telemetry])
    assert metadata == tracer.metadata


# ----------------------------------------------------------------------
# Auditor.
# ----------------------------------------------------------------------
def test_auditor_clean_cluster_has_no_violations():
    dfs = _cluster()
    _write_files(dfs)
    auditor = audit_mod.Auditor(fail_fast=True)
    auditor.attach(dfs)
    auditor.audit(dfs.sim, dfs.sim.now, event="final")
    assert auditor.violations == []
    assert auditor.checks_run >= 6  # all three tiers ran
    assert auditor.summary()["unwaived"] == 0


def test_auditor_fail_fast_raises_on_seeded_corruption():
    dfs = _cluster()
    _write_files(dfs)
    locations = next(iter(dfs.namenode.all_blocks()))
    locations.datanodes.append(locations.datanodes[0])  # duplicate replica
    auditor = audit_mod.Auditor(fail_fast=True)
    auditor.attach(dfs)
    with pytest.raises(AuditError, match="duplicate"):
        auditor.audit(dfs.sim, dfs.sim.now)
    locations.datanodes.pop()


def test_auditor_records_and_waives():
    dfs = _cluster()
    _write_files(dfs)
    locations = next(iter(dfs.namenode.all_blocks()))
    locations.datanodes.append(locations.datanodes[0])
    auditor = audit_mod.Auditor()
    auditor.attach(dfs)
    new = auditor.audit(dfs.sim, 7.25)
    locations.datanodes.pop()
    assert new and all(v.check == "replication" for v in new)
    assert auditor.unwaived() == new
    # A window that misses the timestamp waives nothing...
    assert auditor.waive_between([(0.0, 7.0)], "early") == 0
    # ...the covering window waives everything, and the summary shows it.
    assert auditor.waive_between([(7.0, 8.0)], "fault window") == len(new)
    assert auditor.unwaived() == []
    summary = auditor.summary()
    assert summary["violations"] == len(new) and summary["unwaived"] == 0
    assert all(r.get("waiver") == "fault window" for r in summary["records"])


def test_final_audit_content_check_is_never_skipped_or_waived():
    """A record left on a dead disk (kept for recovery to read) does not
    switch the parity check off; one still APPENDED on a live node is a
    finding of its own; and no window waives what a final audit finds."""
    dfs = _cluster()
    _write_files(dfs)
    locations = next(iter(dfs.namenode.all_blocks()))
    dead, live = (dfs.datanode_by_name(n) for n in locations.datanodes)
    content = live.slot_payload(locations.sc_id, locations.slot)

    def leave_record_on(datanode):
        datanode.lstors.journal.append(
            block_name=locations.block.name, sc_id=locations.sc_id,
            slot=locations.slot, old_data=content, new_data=content,
            nbytes=locations.block.size,
            now=dfs.sim.now, version=locations.version,
        )

    def parity_findings(ts):
        new = auditor.audit(dfs.sim, ts, event="final")
        return [(v.subject, v.detail) for v in new if v.check == "parity-coverage"]

    auditor = audit_mod.Auditor()
    auditor.attach(dfs)
    leave_record_on(dead)
    dead.alive = False
    assert not dfs.journals_empty() and dfs.unabsorbed_writes() == []
    shard, zero = live.shard_index_of(locations.sc_id), dfs.factory.zero(len(content))
    live.lstors.absorb_update(shard, locations.slot, content, zero)  # corrupt live parity
    assert parity_findings(5.0) == [
        ("lstor", f"parity mismatch on {live.name} slot {locations.slot}")
    ]
    live.lstors.absorb_update(shard, locations.slot, zero, content)  # and undo
    leave_record_on(live)
    write = f"{live.name}:{locations.block.name}@{locations.version}"
    assert dfs.unabsorbed_writes() == [write]
    assert [subject for subject, _ in parity_findings(6.0)] == [write]
    auditor.waive_between([(0.0, 10.0)], "fault window")
    assert {(v.check, v.ts) for v in auditor.unwaived()} >= {
        ("parity-coverage", 5.0), ("parity-coverage", 6.0)
    }
    assert all(v.event == "final" for v in auditor.unwaived())


def test_auditor_flags_orphaned_superchunk():
    """A superchunk silently dropped from the layout (no freeze, no
    degraded enumeration) is exactly the rollback bug the check hunts."""
    dfs = _cluster()
    _write_files(dfs)
    # Pick a superchunk that actually holds blocks and drop one of its
    # homes from the layout without freezing or enumerating anything --
    # the state an interrupted remirror rollback would leave behind.
    sc = next(
        sc for sc in dfs.layout._superchunks.values()
        if dfs.map.used_slots(sc.sc_id) > 0
    )
    auditor = audit_mod.Auditor()
    auditor.attach(dfs)
    dfs.layout.remove_disk(sc.disk_a)
    new = auditor.audit(dfs.sim, dfs.sim.now, event="recovered")
    subject = f"sc{sc.sc_id}"
    assert any(
        v.check == "superchunk-orphan" and v.subject == subject for v in new
    )
    # Frozen (recovery in flight) silences that superchunk.
    dfs.map.freeze(sc.sc_id)
    try:
        assert not any(
            v.check == "superchunk-orphan" and v.subject == subject
            for v in auditor.audit(dfs.sim, dfs.sim.now, event="recovered")
        )
    finally:
        dfs.map.unfreeze(sc.sc_id)


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------
def test_sparkline_shape():
    from repro.tools.raidpctl import sparkline

    assert sparkline([]) == ""
    flat = sparkline([3.0, 3.0, 3.0])
    assert len(flat) == 3 and len(set(flat)) == 1
    assert sparkline([float(value) for value in range(8)]) == "▁▂▃▄▅▆▇█"
    assert sparkline([None, 1.0, None, 2.0]) == " ▁ █"
    assert sparkline([None, None]) == "  "


def test_time_cells_average_by_time_and_leave_gaps_blank():
    from repro.tools.raidpctl import time_cells

    samples = [(0.5 * tick, float(tick)) for tick in range(16)]
    assert time_cells(samples, 0.0, 7.5, 8) == [0.5, 2.5, 4.5, 6.5, 8.5, 10.5, 12.5, 14.5]
    # Two samples early, none after: the tail is blank, not stretched.
    assert time_cells(samples[:2], 0.0, 7.5, 4) == [0.5, None, None, None]
    assert time_cells([(3.0, 2.0)], 3.0, 3.0, 1) == [2.0]
