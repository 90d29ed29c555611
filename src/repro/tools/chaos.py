"""Chaos soak: DFSIO + TeraSort traffic under seeded fault injection.

The acceptance drill for the failure-lifecycle hardening: a ByteStore
RAIDP cluster runs real read/write/rewrite traffic plus a TeraSort while
a :func:`repro.faults.chaos_schedule` plan fires underneath it -- at
least one simultaneous double failure of a superchunk-sharing pair, an
independent single-disk failure, a whole-node crash + restart cycle, a
transient NIC degradation, and an Lstor loss.  After the dust settles
the soak asserts:

- **no data loss**: every surviving block reads back bit-exact through
  the regular client path (degraded reads allowed), and every listed
  replica's stored content matches the expected generator output;
- **a recovery per failure**: every injected victim shows up in the
  monitor's detection log and the recovery reports cover every failure
  group (the sharing pair counts as one double-failure report);
- **clean rejoin**: the restarted node re-registers through
  :meth:`~repro.core.monitor.ClusterMonitor.rejoin`;
- **determinism**: two runs with the same seed produce bit-identical
  history fingerprints (injections, detections, per-block checksums,
  final clock, network byte counts);
- **the state invariants**: an :class:`repro.obs.audit.Auditor` probes
  every run at each detection, recovery and flight-recorder tick, then
  audits the drained cluster (layout laws, superchunk homes, flows, disk
  accounting, replica presence, parity and mirror *content*); findings
  inside the fault->recovery span are waived, final-audit ones never.

Run it from the shell (the ``make chaos`` target does exactly this)::

    PYTHONPATH=src python -m repro.tools.chaos --seed 12345 --runs 2

``--trace PATH`` records the soak as one Chrome trace: its spans, the
flight recorder's counter tracks at a 0.5 s cadence, and the verdict in
the trace's metadata (``raidpctl trace PATH`` reads it back).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.monitor import ClusterMonitor, MonitorConfig
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultSchedule, chaos_schedule
from repro.hdfs.config import DfsConfig
from repro.hdfs.namenode import healthy_datanode
from repro.obs import audit as audit_mod
from repro.obs import timeseries as ts_mod
from repro.obs import tracer as tracer_mod
from repro.obs.export import write_trace
from repro.sim.cluster import ClusterSpec
from repro.storage.payload import Payload
from repro.workloads.driver import workload_body
from repro.workloads.terasort import terasort_tasks

DEFAULT_SEED = 0xC4A05

#: Cluster shape: small blocks and superchunks so the soak runs in
#: seconds while still exercising multi-superchunk layouts.
NUM_NODES = 12
SUPERCHUNKS_PER_DISK = 3
BLOCK_SIZE = 256 * units.KiB
SUPERCHUNK_SIZE = 1 * units.MiB  # 4 block slots per superchunk

#: Traffic shape.
DFSIO_FILE_BLOCKS = 2
TERASORT_BYTES = NUM_NODES * BLOCK_SIZE  # one input block per task
ROUND_PAUSE = 0.25
TRAFFIC_DEADLINE = 11.0
HORIZON = 30.0
FAULT_WINDOW = (2.0, 10.0)
RESTART_DELAY = 4.0


@dataclasses.dataclass
class ChaosResult:
    """Outcome of one soak run.

    ``audit`` is the auditor's summary (plain data: the auditor itself
    holds the cluster).  It rides *outside* the fingerprint, which the
    determinism tests compare.
    """

    seed: int
    ok: bool
    problems: List[str]
    fingerprint: Dict
    audit: Dict[str, Any]

    def summary(self) -> str:
        fp = self.fingerprint
        status = "PASS" if self.ok else "FAIL"
        return (
            f"chaos seed={self.seed}: {status} -- "
            f"{len(fp['injections'])} faults injected, "
            f"{len(fp['detected'])} detections, "
            f"{len(fp['reports'])} recoveries, "
            f"{fp['pipeline_recoveries']} pipeline recoveries, "
            f"{fp['read_failovers']} read failovers, "
            f"{fp['degraded_reads']} degraded reads, "
            f"{fp['skipped_ops']} ops skipped, "
            f"{len(fp['blocks'])} blocks verified"
        )

    def render_timeline(self) -> str:
        """The fault -> detection -> recovery latency table."""
        rows = self.fingerprint.get("timeline", [])
        if not rows:
            return "(no recovery timeline)"
        lines = [
            f"{'victims':<24} {'injected':>9} {'detected':>9} "
            f"{'recovered':>9} {'det lat':>8} {'rec lat':>8}"
        ]
        lines.append("-" * len(lines[0]))
        for row in rows:
            victims = "+".join(row["victims"])

            def fmt(value: Optional[float]) -> str:
                return f"{value:9.3f}" if value is not None else f"{'-':>9}"

            def fmt8(value: Optional[float]) -> str:
                return f"{value:8.3f}" if value is not None else f"{'-':>8}"

            lines.append(
                f"{victims:<24} {fmt(row['injected_at'])} "
                f"{fmt(row['detected_at'])} {fmt(row['recovered_at'])} "
                f"{fmt8(row['detect_latency'])} {fmt8(row['recover_latency'])}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Guarded traffic bodies.
# ----------------------------------------------------------------------
def _guard(body: Generator, skipped: List[int]) -> Generator:
    """Run a task body, absorbing in-fault failures (MapReduce retries
    the task in real life; the soak just counts the casualty)."""
    try:
        yield from body
    except ReproError:
        skipped[0] += 1
    return None


def _create_file(dfs: Any, client: Any, path: str, nbytes: int, skipped: List[int]) -> Generator:
    """Write a new file; abandon it wholesale if the write dies.

    A create that loses every replica mid-flight leaves phantom blocks
    (allocated slots, no durable content); real HDFS clients abandon the
    file, and so does the soak -- otherwise recovery would be asked to
    rebuild bytes that never existed.
    """
    try:
        yield from client.write_file(path, nbytes)
    except ReproError:
        skipped[0] += 1
        if dfs.namenode.file_exists(path):
            try:
                yield from client.delete_file(path)
            except ReproError:
                pass
    return None


def _safe_rewrite(dfs: Any, client: Any, path: str, skipped: List[int]) -> Generator:
    """Rewrite a file in place, skipping blocks that cannot accept
    writes right now (superchunk frozen by an in-flight recovery, or no
    healthy replica at all).  A write that loses *every* replica
    mid-flight is rolled back to the previous version -- nothing durable
    happened, so the version number must not advance past the content.
    """
    for block in dfs.namenode.file_blocks(path):
        locations = dfs.namenode.locate_block(block.block_id)
        if locations.sc_id is not None and dfs.map.is_frozen(locations.sc_id):
            skipped[0] += 1
            continue
        healthy = [
            name
            for name in locations.datanodes
            if healthy_datanode(dfs.namenode.datanode(name))
        ]
        if not healthy:
            skipped[0] += 1
            continue
        locations.version += 1
        try:
            yield from client.write_block(locations)
        except ReproError:
            locations.version -= 1
            skipped[0] += 1
    return None


def _traffic(dfs: Any, skipped: List[int]) -> Generator:
    """The soak's workload: seed the datasets, churn reads/rewrites
    until the traffic deadline, then run a TeraSort over the input."""
    clients = dfs.clients
    nfiles = len(clients)

    # Seed: a DFSIO file per client plus the TeraSort input slices.
    # This completes before the fault window opens, so the churn rounds
    # below always have data to hit.
    seed_bodies = [
        _create_file(
            dfs, client, f"/chaos/dfsio/f{i}", DFSIO_FILE_BLOCKS * BLOCK_SIZE, skipped
        )
        for i, client in enumerate(clients)
    ]
    seed_bodies += [
        _create_file(
            dfs, client, f"/chaos/sort/in/part-{i}", TERASORT_BYTES // nfiles, skipped
        )
        for i, client in enumerate(clients)
    ]
    yield from workload_body(dfs, seed_bodies, "chaos-seed")

    # Churn: every round, each live-node client reads a rotated file and
    # every third client rewrites its own -- so the fault instants land
    # inside active reads and pipeline writes.
    round_index = 0
    while dfs.sim.now < TRAFFIC_DEADLINE:
        bodies = []
        for i, client in enumerate(clients):
            if not client.node.alive:
                continue
            target = (i + round_index) % nfiles
            bodies.append(_guard(client.read_file(f"/chaos/dfsio/f{target}"), skipped))
            if (i + round_index) % 3 == 0:
                bodies.append(_safe_rewrite(dfs, client, f"/chaos/dfsio/f{i}", skipped))
        yield from workload_body(dfs, bodies, f"chaos-round{round_index}")
        round_index += 1
        yield dfs.sim.timeout(ROUND_PAUSE)

    # TeraSort over the seeded input, with every task guarded the way a
    # real MapReduce job would retry a failed attempt.
    sort_bodies = [
        _guard(body, skipped)
        for body in terasort_tasks(
            dfs,
            TERASORT_BYTES,
            input_prefix="/chaos/sort/in",
            output_prefix="/chaos/sort/out",
        )
    ]
    yield from workload_body(dfs, sort_bodies, "chaos-terasort")
    return None


# ----------------------------------------------------------------------
# Verification.
# ----------------------------------------------------------------------
def _expected(dfs: Any, locations: Any) -> Payload:
    """The content generator's payload for a block at its current version."""
    block = locations.block
    return dfs.factory.make(block.name, locations.version, block.size)


def _verify_replicas(
    dfs: Any, locations: Any, expected: Payload, problems: List[str]
) -> None:
    """Every listed replica of one block must be healthy and hold the
    exact bytes."""
    block = locations.block
    if locations.replica_count == 0:
        problems.append(f"{block.name}: no replicas survived")
        return
    for name in locations.datanodes:
        datanode = dfs.namenode.datanode(name)
        if not healthy_datanode(datanode):
            problems.append(f"{block.name}: listed replica {name} is dead")
            continue
        if not datanode.has_block(block.name):
            problems.append(f"{block.name}: replica {name} lost the content")
            continue
        if datanode.content_of(block.name) != expected:
            problems.append(f"{block.name}: replica {name} diverged")


def _verify_block(
    dfs: Any, path: str, locations: Any, problems: List[str], blocks_fp: List
) -> Generator:
    """Mint one block's expected payload, compare every listed replica
    and the regular client path's read-back against it bit for bit, and
    append the block's fingerprint row.  The payload dies with this
    frame, so the post-mortem holds one expected block at a time."""
    expected = _expected(dfs, locations)
    _verify_replicas(dfs, locations, expected, problems)
    block = locations.block
    try:
        payload = yield from dfs.clients[0].read_block(locations)
    except ReproError as exc:
        problems.append(f"read of {block.name} ({path}) failed: {exc}")
        return None
    if payload != expected:
        problems.append(f"{block.name} ({path}) read back wrong content")
    blocks_fp.append(
        (
            block.name,
            locations.version,
            tuple(sorted(locations.datanodes)),
            payload.checksum(),
        )
    )
    return None


def _verify_blocks(dfs: Any, problems: List[str], blocks_fp: List) -> Generator:
    """The post-mortem's one pass over the blocks: each file's blocks in
    path order (the order of the reads and the fingerprint rows) through
    :func:`_verify_block`, then a replica check for any block in the
    block map that no file reaches."""
    reached: Set[int] = set()
    for path in dfs.namenode.list_files():
        for block in dfs.namenode.file_blocks(path):
            reached.add(block.block_id)
            locations = dfs.namenode.locate_block(block.block_id)
            yield from _verify_block(dfs, path, locations, problems, blocks_fp)
    for locations in dfs.namenode.all_blocks():
        if locations.block.block_id not in reached:
            _verify_replicas(dfs, locations, _expected(dfs, locations), problems)
    return None


def recovery_timeline(
    monitor: ClusterMonitor, injector: FaultInjector
) -> List[Dict]:
    """Fault -> detection -> recovery-complete latency per detection.

    One row per detector sweep that declared a dead set: when the
    underlying fault(s) were injected, when the sweep fired, and when the
    last recovery report covering the set completed.  ``None`` marks a
    stage that never happened (e.g. a victim already rejoined).
    """
    fault_time: Dict[str, float] = {}
    for record in injector.injected:
        fault = record.fault
        if fault.kind == "disk_fail":
            fault_time.setdefault(fault.target, record.at)
        elif fault.kind == "node_crash":
            node = injector._node(fault.target)
            for datanode in injector._datanodes_on(node):
                fault_time.setdefault(datanode.name, record.at)
    rows: List[Dict] = []
    for detected_at, names in monitor.detected:
        injected = [fault_time[name] for name in names if name in fault_time]
        injected_at = min(injected) if injected else None
        recovered_at = None
        for when, report in zip(monitor.report_times, monitor.reports):
            if when >= detected_at and any(
                name in report.failed_disks for name in names
            ):
                recovered_at = when if recovered_at is None else max(
                    recovered_at, when
                )
        rows.append(
            {
                "victims": sorted(names),
                "injected_at": injected_at,
                "detected_at": detected_at,
                "recovered_at": recovered_at,
                "detect_latency": (
                    detected_at - injected_at if injected_at is not None else None
                ),
                "recover_latency": (
                    recovered_at - injected_at
                    if injected_at is not None and recovered_at is not None
                    else None
                ),
            }
        )
    return rows


def _verify_lifecycle(
    dfs: Any, monitor: ClusterMonitor, injector: FaultInjector, problems: List[str]
) -> None:
    """Detection, recovery, and rejoin coverage for every injected fault."""
    detected_names = {name for _, names in monitor.detected for name in names}
    rejoined = {name for _, name in monitor.rejoined}
    covered = {
        name for report in monitor.reports for name in report.failed_disks
    }
    victims: List[str] = []
    seen_double = False
    disk_fail_times: Dict[float, List[str]] = {}
    for record in injector.injected:
        fault = record.fault
        if fault.kind == "disk_fail":
            victims.append(fault.target)
            disk_fail_times.setdefault(fault.at, []).append(fault.target)
        elif fault.kind == "node_crash":
            node = injector._node(fault.target)
            victims.extend(dn.name for dn in injector._datanodes_on(node))
        elif fault.kind == "node_restart":
            node = injector._node(fault.target)
            for datanode in injector._datanodes_on(node):
                if datanode.name not in rejoined:
                    problems.append(f"{datanode.name} never rejoined after restart")
    for victim in victims:
        if victim not in detected_names:
            problems.append(f"failure of {victim} never detected")
        if victim not in covered:
            problems.append(f"no recovery report covers {victim}")
    seen_double = any(len(names) > 1 for names in disk_fail_times.values())
    if seen_double and not any(
        report.reconstructed for report in monitor.reports
    ):
        problems.append("double failure injected but no Lstor reconstruction ran")
    for when, names, exc in monitor.recovery_errors:
        problems.append(f"recovery of {names} failed at t={when:.3f}: {exc}")


# ----------------------------------------------------------------------
# The audit's waiver span.
# ----------------------------------------------------------------------
def _fault_recovery_span(
    monitor: ClusterMonitor, injector: FaultInjector, final_time: float
) -> Optional[Tuple[float, float]]:
    """First injection -> last recovery-completion/rejoin, or None when
    nothing was injected: where degraded replication state is expected
    (detection lag, in-flight remirroring) and audit findings are waived."""
    starts = [record.at for record in injector.injected]
    if not starts:
        return None
    start = min(starts)
    ends = list(monitor.report_times) + [t for t, _ in monitor.rejoined]
    end = max(ends) if ends else final_time
    return (start, max(start, end))


# ----------------------------------------------------------------------
# One soak run.
# ----------------------------------------------------------------------
def build_cluster(seed: int) -> RaidpCluster:
    """The soak's cluster: 12 single-disk nodes, byte-level payloads."""
    spec = ClusterSpec(num_nodes=NUM_NODES)
    config = DfsConfig(
        block_size=BLOCK_SIZE,
        replication=2,
        tasks_per_node=1,
        read_retries=3,
        read_backoff=20 * units.MSEC,
        allocate_retries=20,
        allocate_backoff=0.25,
    )
    return RaidpCluster(
        spec=spec,
        config=config,
        superchunk_size=SUPERCHUNK_SIZE,
        superchunks_per_disk=SUPERCHUNKS_PER_DISK,
        seed=seed,
    )


def run_chaos(
    seed: int = DEFAULT_SEED, schedule: Optional[FaultSchedule] = None
) -> ChaosResult:
    """Run one soak; returns the pass/fail verdict and the run's
    deterministic history fingerprint.

    The flight recorder is the caller's ``with timeseries.capture(...)``
    around the call, next to the ``with tracer.capture()`` that
    ``--trace`` enters: the soak samples into the ambient sampler (its
    counter tracks land in the ambient trace) and audits at its ticks
    too.  Observers only: the fingerprint is bit-identical either way.
    """
    sampler = ts_mod.active_sampler()
    with audit_mod.capture(fail_fast=False) as auditor:
        dfs = build_cluster(seed)
        if schedule is None:
            schedule = chaos_schedule(
                dfs, seed, window=FAULT_WINDOW, restart_delay=RESTART_DELAY
            )
        monitor = ClusterMonitor(
            dfs,
            MonitorConfig(heartbeat_interval=0.5, dead_after=2.0, sweep_interval=0.5),
        )
        injector = FaultInjector(dfs, schedule, monitor=monitor)
        auditor.attach(dfs)
        if sampler is not None:  # its new run dropped the last run's hooks
            sampler.watch(dfs, monitor)
            sampler.on_sample(auditor.on_sample)

        skipped = [0]
        monitor.start()
        injector.start()
        traffic = dfs.sim.process(_traffic(dfs, skipped), name="chaos-traffic")
        dfs.sim.run(until=HORIZON)
        problems: List[str] = []
        if not traffic.triggered:
            problems.append("traffic did not finish before the horizon")
        if not injector.done:
            problems.append("fault schedule did not finish before the horizon")
        monitor.stop()
        dfs.sim.run()  # drain the heartbeat/detector loops
        auditor.audit(dfs.sim, dfs.sim.now, event="final")

    span = _fault_recovery_span(monitor, injector, dfs.sim.now)
    if span is not None:
        auditor.waive_between(
            [span],
            "detection-lag: replication state is expected to be "
            "degraded between injection and recovery completion",
        )
    problems.extend(f"audit: {v.as_dict()}" for v in auditor.unwaived())

    # ------------------------------------------------------------------
    # Post-mortem verification.
    # ------------------------------------------------------------------
    _verify_lifecycle(dfs, monitor, injector, problems)
    lost = dfs.namenode.lost_blocks()
    if lost:
        problems.append(f"{len(lost)} blocks lost: "
                        f"{[loc.block.name for loc in lost][:5]}")

    blocks_fp: List = []
    dfs.sim.run_process(_verify_blocks(dfs, problems, blocks_fp))

    fingerprint = {
        "injections": [
            (r.at, r.fault.kind, r.fault.target, r.fault.factor,
             r.fault.duration, r.note)
            for r in injector.injected
        ],
        "detected": [(t, list(names)) for t, names in monitor.detected],
        "rejoined": [(t, name) for t, name in monitor.rejoined],
        "reports": [
            (report.duration, sorted(report.remirrored),
             list(report.reconstructed), report.bytes_reconstructed)
            for report in monitor.reports
        ],
        "recovery_errors": [
            (t, list(names), str(exc))
            for t, names, exc in monitor.recovery_errors
        ],
        "files": sorted(
            (path, dfs.namenode.file_size(path))
            for path in dfs.namenode.list_files()
        ),
        "blocks": blocks_fp,
        "under_replicated": len(dfs.namenode.under_replicated()),
        "skipped_ops": skipped[0],
        "pipeline_recoveries": sum(
            c.stats_pipeline_recoveries for c in dfs.clients
        ),
        "read_failovers": sum(c.stats_read_failovers for c in dfs.clients),
        "degraded_reads": sum(c.stats_degraded_reads for c in dfs.clients),
        "final_time": dfs.sim.now,
        "network_bytes": dfs.total_network_bytes(),
        "timeline": recovery_timeline(monitor, injector),
    }
    return ChaosResult(
        seed=seed, ok=not problems, problems=problems, fingerprint=fingerprint,
        audit=auditor.summary(),
    )


def run_repeated(
    seed: int = DEFAULT_SEED, runs: int = 2, schedule: Optional[FaultSchedule] = None
) -> ChaosResult:
    """Run the soak ``runs`` times with the same seed; the fingerprints
    must be bit-identical or the combined result fails."""
    first = run_chaos(seed, schedule)
    for index in range(1, runs):
        again = run_chaos(seed, schedule)
        first.problems.extend(again.problems)
        if again.fingerprint != first.fingerprint:
            diff_keys = [
                key
                for key in first.fingerprint
                if first.fingerprint[key] != again.fingerprint[key]
            ]
            first.problems.append(
                f"run {index + 1} diverged from run 1 on: {diff_keys}"
            )
    first.ok = not first.problems
    return first


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="RAIDP chaos soak: workloads under seeded fault injection"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--runs", type=int, default=2,
        help="same-seed repetitions to check determinism (default 2)",
    )
    parser.add_argument(
        "--json", action="store_true", help="dump the fingerprint as JSON"
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="print the fault -> detection -> recovery latency table",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record the soak in Chrome trace format: spans, the flight "
        "recorder's counter tracks (0.5s cadence) and the verdict as "
        "metadata (raidpctl trace reads it)",
    )
    options = parser.parse_args(argv)

    runs = max(1, options.runs)
    if options.trace:
        # The soak finds both observers the same way: whatever is active
        # when its Simulator is built.
        with tracer_mod.capture() as tracer, ts_mod.capture(ts_mod.DEFAULT_INTERVAL):
            result = run_repeated(options.seed, runs=runs)
        tracer.metadata.update(
            seed=options.seed,
            runs=runs,
            ok=result.ok,
            problems=result.problems,
            audit=result.audit,
            fingerprint=result.fingerprint,
        )
        count = write_trace(tracer, options.trace)
        print(f"trace: {count} events -> {options.trace}")
    else:
        result = run_repeated(options.seed, runs=runs)
    print(result.summary())
    if options.timeline:
        print(result.render_timeline())
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    if options.json:
        json.dump(result.fingerprint, sys.stdout, indent=2, default=list)
        print()
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
