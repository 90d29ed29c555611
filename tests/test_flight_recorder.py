"""The cluster flight recorder: sampler, invariant auditor, SLO engine.

Covers the three contracts ISSUE 9 pins down:

- **observer-only**: sampled/audited runs are bitwise-identical to bare
  runs (table2 rows, chaos fingerprints, engine event sequences);
- **correct telemetry**: windowed percentiles match the stats kernel,
  ring buffers stay column-aligned, exports round-trip;
- **useful verdicts**: the auditor catches seeded corruption and stays
  silent on healthy clusters; SLO burn rates and the health report
  follow their definitions.
"""

import math

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.errors import AuditError
from repro.hdfs.config import DfsConfig
from repro.obs import audit as audit_mod
from repro.obs import slo as slo_mod
from repro.obs import timeseries as ts_mod
from repro.obs.metrics import read_cluster
from repro.obs.timeseries import (
    TimeSeriesStore,
    load_timeseries,
    percentile_from_buckets,
    write_timeseries,
)
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram


def _cluster(seed=11, nodes=8):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(),
        superchunk_size=4 * units.MiB,
        payload_mode="tokens",
        seed=seed,
    )


def _write_files(dfs, nbytes=2 * units.MiB):
    def workload():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/fr/f{index}", nbytes)

    dfs.sim.run_process(workload())


# ----------------------------------------------------------------------
# TimeSeriesStore.
# ----------------------------------------------------------------------
def test_store_columns_stay_aligned_across_eviction():
    store = TimeSeriesStore(capacity=3)
    store.append(0, 1.0, {"a": 1.0})
    store.append(0, 2.0, {"a": 2.0})
    # A series born late is None-padded to the current length...
    store.append(0, 3.0, {"a": 3.0, "b": 30.0})
    # ...and eviction drops the oldest row from *every* column.
    store.append(0, 4.0, {"a": 4.0, "b": 40.0})
    assert len(store) == 3
    assert store.total_appended == 4
    assert store.series("a") == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    assert store.series("b") == [(3.0, 30.0), (4.0, 40.0)]
    rows = list(store.rows())
    assert rows[0] == (0, 2.0, {"a": 2.0})
    assert rows[-1] == (0, 4.0, {"a": 4.0, "b": 40.0})


def test_store_filters_by_run():
    store = TimeSeriesStore(capacity=8)
    store.append(0, 1.0, {"a": 1.0})
    store.append(1, 1.0, {"a": 9.0})
    assert store.series("a", run=0) == [(1.0, 1.0)]
    assert store.series("a", run=1) == [(1.0, 9.0)]


# ----------------------------------------------------------------------
# Sampler: tick grid, counters/gauges, windowed percentiles.
# ----------------------------------------------------------------------
def _watch_fake(monkeypatch, reader):
    """Point the sampler's one reader at ``reader()`` for synthetic series."""
    monkeypatch.setattr(ts_mod, "read_cluster", lambda dfs, monitor: reader())


def test_sampler_grid_and_counter_series(monkeypatch):
    box = [0]
    _watch_fake(monkeypatch, lambda: ({"ops": float(box[0])}, {}))
    with ts_mod.capture(interval=0.5) as sampler:
        sim = Simulator()
        sampler.watch(None)

        def ticker():
            for _ in range(9):
                box[0] += 1
                yield sim.timeout(0.3)

        sim.run_process(ticker())
    # Ticks at 0.5, 1.0, ... while the schedule is non-empty; the body
    # spans 2.7 simulated seconds, so the 2.5 tick is the last one.
    assert sampler.store.series("ops") == [
        (0.5, 2.0), (1.0, 4.0), (1.5, 6.0), (2.0, 7.0), (2.5, 9.0)
    ]
    assert sampler.store.total_appended == 5


def test_sampler_windowed_percentiles_match_stats_kernel(monkeypatch):
    hist = Histogram()
    _watch_fake(monkeypatch, lambda: ({}, {"lat": hist}))
    with ts_mod.capture(interval=1.0) as sampler:
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
    points = dict(sampler.store.series("lat:p50"))
    p99 = dict(sampler.store.series("lat:p99"))
    counts = dict(sampler.store.series("lat:count"))
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


def test_sampler_aggregates_labeled_histograms():
    """Per-disk labeled histograms roll up into a cluster-wide series."""
    with ts_mod.capture(interval=0.05) as sampler:
        dfs = _cluster()
        sampler.watch(dfs)
        _write_files(dfs)
    agg = sampler.store.series("disk_io_latency:count")
    assert agg, "aggregate series missing"
    per_disk_total = sum(
        value
        for name in sampler.store.names()
        if name.startswith("disk_io_latency{") and name.endswith(":count")
        for _, value in sampler.store.series(name)
    )
    assert sum(v for _, v in agg) == pytest.approx(per_disk_total)
    assert any(v > 0 for _, v in sampler.store.series("disk_io_latency:p99"))


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
    with ts_mod.capture(interval=0.05) as sampler:
        dfs = snapshot.restore(blob)
        before = ios(dfs)
        sampler.watch(dfs)

        def rewrite():
            for index, client in enumerate(dfs.clients):
                yield from client.write_file(f"/fr/g{index}", units.MiB)
            yield dfs.sim.timeout(1.0)  # a tick after the last I/O closes its window

        dfs.sim.run_process(rewrite())
    windows = [count for _ts, count in sampler.store.series("disk_io_latency:count")]
    assert before > 0 and windows[0] > 0
    assert sum(windows) == ios(dfs) - before


# ----------------------------------------------------------------------
# Observer-only: bitwise identity.
# ----------------------------------------------------------------------
def test_sampled_run_is_bitwise_identical():
    def fingerprint(sampled):
        if sampled:
            with ts_mod.capture(interval=0.25):
                dfs = _cluster(seed=5)
                _write_files(dfs)
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
    with ts_mod.capture(interval=0.5), audit_mod.capture(fail_fast=True):
        recorded = t2.run_task(key)
    assert recorded == bare


def test_chaos_fingerprint_bitwise_identical_and_healthy():
    """The acceptance drill: one chaos schedule, bare vs flight-recorded.

    The fingerprints must match bit-for-bit and the recorded run must
    produce a health report with per-phase latency series, repair
    accounting, SLO verdicts, and zero un-waived audit violations.
    """
    from repro.tools.chaos import run_chaos

    bare = run_chaos(seed=20260809)
    with ts_mod.capture(interval=0.5):
        recorded = run_chaos(seed=20260809)
    assert bare.health is None
    assert bare.ok, bare.problems
    assert recorded.ok, recorded.problems
    assert recorded.fingerprint == bare.fingerprint
    health = recorded.health
    assert health is not None and health["schema"] == slo_mod.HEALTH_SCHEMA
    assert [p["phase"] for p in health["phases"]] == [
        "pre-fault", "fault", "recovery", "drain"
    ]
    pre = health["phases"][0]["series"]
    assert pre["disk_io_latency:p50"]["samples"] > 0
    assert pre["disk_io_latency:p99"]["samples"] > 0
    assert health["repair_gb"] >= 0.0
    assert health["audit"]["unwaived"] == 0
    # Detection/recovery probes audited beyond the per-tick hook.
    assert health["audit"]["audits"] > health["samples"]
    assert {s["name"] for s in health["slos"]} == {
        "disk-p50-latency", "disk-p99-latency", "blocks-at-risk",
        "repair-traffic",
    }
    dash = slo_mod.render_dash(health)
    assert "SLO verdicts" in dash and "phase fault" in dash


def test_soak_series_names_and_sampled_rows_are_pinned():
    """The flight recorder's artifact, value for value: the default
    soak's 243 series (named here from the cluster's components, not
    from the reader) and a float-hex digest of its 61 sampled rows, as
    measured before the registry of views was replaced by the reader."""
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
        disk, journal = datanode.disk.name, datanode.lstors.primary.name
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
    with ts_mod.capture(interval=0.5) as sampler:
        assert run_chaos(805381).ok
    assert sampler.store.names() == sorted(expected) and len(expected) == 243
    digest = hashlib.sha256()
    for run, ts, row in sampler.store.rows():
        digest.update(f"{run} {ts.hex()}".encode())
        for name in sorted(row):
            digest.update(f" {name}={row[name].hex()}".encode())
        digest.update(b"\n")
    assert len(sampler.store) == 61
    assert digest.hexdigest() == (
        "b5f99c0e42d9122608f145760e2dd76bc82e7e19d431d560fd91347ddc92652f"
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
        sim.run_process(_sleeper(sim))

    def _sleeper(sim):
        yield sim.timeout(1.2)

    with ts_mod.capture(interval=0.5) as sampler:
        run("first")
        run("second")
    assert ticks == {"first": 2, "second": 2}
    assert [ts for ts, _ in sampler.store.series("first", run=1)] == []
    assert [ts for ts, _ in sampler.store.series("second", run=1)] == [0.5, 1.0]


# ----------------------------------------------------------------------
# Exports: JSONL time series, Perfetto/JSONL traces.
# ----------------------------------------------------------------------
def test_timeseries_jsonl_round_trip(tmp_path):
    with ts_mod.capture(interval=0.05) as sampler:
        dfs = _cluster()
        sampler.watch(dfs)
        _write_files(dfs)
    path = str(tmp_path / "ts.jsonl")
    lines = write_timeseries(sampler, path)
    header, rows = load_timeseries(path)
    assert lines == len(rows) + 1
    assert header["schema"] == ts_mod.SCHEMA
    assert header["interval"] == 0.05
    assert header["samples_retained"] == len(rows) == len(sampler.store)
    assert header["series"] == sampler.store.names()
    reconstructed = [(r["run"], r["ts"], r["values"]) for r in rows]
    assert reconstructed == list(sampler.store.rows())


def test_trace_exports_carry_telemetry_samples(tmp_path):
    """The Perfetto trace export round-trips with sample instants."""
    from repro.obs.export import load_trace, write_trace
    from repro.obs.tracer import Tracer
    from repro.obs.tracer import capture as trace_capture

    with trace_capture(Tracer()) as tracer:
        with ts_mod.capture(interval=0.05) as sampler:
            dfs = _cluster()
            sampler.watch(dfs)
            _write_files(dfs)
    telemetry = [e for e in tracer.events if e.category == "telemetry"]
    assert len(telemetry) == sampler.store.total_appended
    assert all(e.name == "sample" for e in telemetry)

    chrome = str(tmp_path / "run.json")
    assert write_trace(tracer, chrome) == len(tracer.events)
    # Chrome rescales to microseconds; the telemetry instants must still
    # come back with their tick attributes and (approximate) timestamps.
    chrome_loaded = [
        e for e in load_trace(chrome) if e.category == "telemetry"
    ]
    assert len(chrome_loaded) == len(telemetry)
    for got, want in zip(chrome_loaded, telemetry):
        assert got.ts == pytest.approx(want.ts)
        assert got.attrs["tick"] == want.attrs["tick"]


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
        datanode.lstors.primary.journal.append(
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
    live.lstors.primary.absorb(locations.slot, content)  # corrupt live parity
    assert parity_findings(5.0) == [
        ("lstor", f"parity mismatch on {live.name} slot {locations.slot}")
    ]
    live.lstors.primary.absorb(locations.slot, content)  # and undo
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
# SLO engine.
# ----------------------------------------------------------------------
def _points(values, t0=1.0, dt=1.0):
    return [(t0 + i * dt, v) for i, v in enumerate(values)]


def test_slo_each_mode_burn_rate():
    spec = slo_mod.SloSpec("lat", "x:p99", 0.1, budget=0.2)
    result = slo_mod.evaluate_slo(spec, _points([0.05] * 8 + [0.5] * 2))
    assert result.samples == 10 and result.breaches == 2
    assert result.burn_rate == pytest.approx(1.0)  # 20% breach / 20% budget
    assert result.ok and result.worst == 0.5
    hot = slo_mod.evaluate_slo(spec, _points([0.05] * 6 + [0.5] * 4))
    assert hot.burn_rate == pytest.approx(2.0) and not hot.ok


def test_slo_zero_budget_and_final_mode():
    strict = slo_mod.SloSpec("zero", "x", 0.0, budget=0.0)
    assert slo_mod.evaluate_slo(strict, _points([0.0, 0.0])).ok
    breached = slo_mod.evaluate_slo(strict, _points([0.0, 1.0]))
    assert breached.burn_rate == math.inf and not breached.ok

    final = slo_mod.SloSpec("budget", "x", 100.0, mode="final", unit="B")
    result = slo_mod.evaluate_slo(final, _points([10.0, 40.0, 80.0]))
    assert result.ok and result.worst == 80.0
    assert result.burn_rate == pytest.approx(0.8)  # utilization, not breach
    assert not slo_mod.evaluate_slo(final, _points([10.0, 120.0])).ok

    empty = slo_mod.evaluate_slo(strict, [])
    assert empty.ok and empty.samples == 0

    with pytest.raises(ValueError):
        slo_mod.SloSpec("bad", "x", 1.0, mode="sometimes")
    with pytest.raises(ValueError):
        slo_mod.SloSpec("bad", "x", 1.0, budget=1.5)


def test_sparkline_shape():
    assert slo_mod.sparkline([]) == ""
    flat = slo_mod.sparkline([3.0, 3.0, 3.0])
    assert len(flat) == 3 and len(set(flat)) == 1
    ramp = slo_mod.sparkline(list(range(16)), width=8)
    assert len(ramp) == 8
    assert ramp[0] == "▁" and ramp[-1] == "█"


def test_health_report_round_trip(tmp_path):
    with ts_mod.capture(interval=0.05) as sampler:
        dfs = _cluster()
        sampler.watch(dfs)
        _write_files(dfs)
    auditor = audit_mod.Auditor()
    auditor.attach(dfs)
    auditor.audit(dfs.sim, dfs.sim.now, event="final")
    report = slo_mod.health_report(
        sampler, auditor, phases=[("all", 0.0, dfs.sim.now)], title="unit",
        run=sampler.run,
    )
    assert report["ok"]
    assert report["phases"][0]["phase"] == "all"
    path = str(tmp_path / "health.json")
    slo_mod.write_health_report(report, path)
    assert slo_mod.load_health_report(path) == report
    rendered = slo_mod.render_dash(report)
    assert "unit" in rendered and "HEALTHY" in rendered
