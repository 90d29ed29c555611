"""``raidpctl``: drive the RAIDP simulator from the command line.

Subcommands::

    raidpctl layout --nodes 7                     # render a layout (Fig. 3)
    raidpctl bench --system raidp --data 4GiB     # quick write/read bench
    raidpctl drill --nodes 8 --double             # failure drill + verify
    raidpctl tco --disk-cost 280 --server-cost 28000 --disks 60
    raidpctl experiments fig8                     # regenerate a figure
    raidpctl trace run.json                       # summarize a trace file
    raidpctl profile table2 --tasks 2             # rank simulation hot paths

Every command is deterministic and runs entirely in simulation.
"""

from __future__ import annotations

import argparse
import sys
from math import fsum
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro import units
from repro.analysis.cost import DatacenterCostModel, LstorBom, ServerExample
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager
from repro.hdfs.config import DfsConfig
from repro.hdfs.filesystem import HdfsCluster
from repro.obs.tracer import TraceEvent
from repro.sim.cluster import ClusterSpec
from repro.workloads.dfsio import dfsio_read, dfsio_write


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raidpctl", description="RAIDP reproduction control tool"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    layout = sub.add_parser("layout", help="construct and render a superchunk layout")
    layout.add_argument("--nodes", type=int, default=7)
    layout.add_argument("--per-disk", type=int, default=None)
    layout.add_argument("--disks-per-node", type=int, default=1)

    bench = sub.add_parser("bench", help="run a quick DFSIO write+read benchmark")
    bench.add_argument(
        "--system", choices=("raidp", "raidp-rewrite", "hdfs2", "hdfs3"), default="raidp"
    )
    bench.add_argument("--nodes", type=int, default=16)
    bench.add_argument("--data", default="4GiB", help="total dataset, e.g. 4GiB")
    bench.add_argument("--seed", type=int, default=1)

    drill = sub.add_parser("drill", help="run a failure drill with verification")
    drill.add_argument("--nodes", type=int, default=8)
    drill.add_argument("--double", action="store_true", help="double disk failure")
    drill.add_argument("--seed", type=int, default=1)

    tco = sub.add_parser("tco", help="evaluate the 2-replicas+Lstor TCO trade")
    tco.add_argument("--disk-cost", type=float, default=150.0)
    tco.add_argument("--server-cost", type=float, default=20_000.0)
    tco.add_argument("--disks", type=int, default=6)
    tco.add_argument("--lstor-cost", type=float, default=30.0)

    experiments = sub.add_parser("experiments", help="regenerate paper experiments")
    experiments.add_argument("names", nargs="*", default=[])
    experiments.add_argument("--full", action="store_true")

    trace = sub.add_parser(
        "trace",
        help="summarize a trace file (phase totals, recovery breakdowns; "
        "flight-recorder tracks and verdict when it has them)",
    )
    trace.add_argument("file", help="Chrome trace JSON produced by --trace")
    trace.add_argument(
        "--category", default=None, help="restrict to one event category"
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=8,
        metavar="N",
        help="per-recovery superchunk rows to print (0 = all; default 8)",
    )

    profile = sub.add_parser(
        "profile",
        help="rank an experiment's simulation hot paths "
        "(deterministic event attribution; see repro.tools.profile)",
    )
    profile.add_argument("experiment", help="experiment id, e.g. table2")
    profile.add_argument("--tasks", type=int, default=None, metavar="N")
    profile.add_argument("--limit", type=int, default=None, metavar="N")
    profile.add_argument("--json", default=None, metavar="PATH")
    profile.add_argument("--full", action="store_true")
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations.
# ----------------------------------------------------------------------
def cmd_layout(args: argparse.Namespace) -> int:
    if args.disks_per_node > 1:
        from repro.core.layout import domain_aware_layout

        domains = {
            f"n{n}-d{d}": f"n{n}"
            for n in range(args.nodes)
            for d in range(args.disks_per_node)
        }
        layout = domain_aware_layout(domains, args.per_disk or 4)
    else:
        from repro.core.layout import rotational_layout

        layout = rotational_layout(args.nodes, superchunks_per_disk=args.per_disk)
    print(layout.render())
    total = len(layout.superchunks)
    print(
        f"\n{len(layout.disks)} disks, {total} superchunks "
        f"(bound: {layout.max_total_superchunks(len(layout.disks))}); "
        "1-sharing and 1-mirroring verified"
    )
    layout.verify()
    return 0


def _build_system(system: str, nodes: int, seed: int) -> Any:
    spec = ClusterSpec(num_nodes=nodes)
    if system in ("hdfs2", "hdfs3"):
        replication = 2 if system == "hdfs2" else 3
        return HdfsCluster(
            spec=spec,
            config=DfsConfig(replication=replication),
            payload_mode="tokens",
            seed=seed,
        )
    raidp = RaidpConfig(update_oriented=(system == "raidp-rewrite"))
    return RaidpCluster(
        spec=spec,
        config=DfsConfig(replication=2),
        raidp=raidp,
        payload_mode="tokens",
        seed=seed,
    )


def cmd_bench(args: argparse.Namespace) -> int:
    nbytes = units.parse_size(args.data)
    dfs = _build_system(args.system, args.nodes, args.seed)
    write = dfsio_write(dfs, nbytes)
    read = dfsio_read(dfs)
    for result in (write, read):
        print(result.summary())
    print(
        f"throughput: write {nbytes / write.runtime / units.MB:.0f} MB/s, "
        f"read {nbytes / read.runtime / units.MB:.0f} MB/s (simulated)"
    )
    return 0


def cmd_drill(args: argparse.Namespace) -> int:
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=args.nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=max(args.nodes // 3, 2),
        payload_mode="bytes",
        seed=args.seed,
    )

    def workload() -> Generator:
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/drill/file{index}", 3 * units.MiB)

    dfs.sim.run_process(workload())
    manager = RecoveryManager(dfs)
    if args.double:
        a, b = next(
            (x, y)
            for x in dfs.layout.disks
            for y in dfs.layout.disks
            if x < y and dfs.layout.shared(x, y) is not None
        )
        print(f"double failure drill: {a} and {b} (shared superchunk lost)")
        report = manager.recover((a, b))
        print(
            f"reconstructed superchunk {report.reconstructed[0]}, re-mirrored "
            f"{len(report.remirrored)} in {units.format_duration(report.duration)}"
        )
    else:
        victim = dfs.layout.disks[0]
        print(f"single failure drill: {victim}")
        report = manager.recover((victim,))
        print(
            f"re-mirrored {len(report.remirrored)} superchunks in "
            f"{units.format_duration(report.duration)}"
        )
    dfs.layout.verify()
    dfs.verify_mirrors()
    dfs.verify_parity()
    print("drill passed: mirrors bit-identical, parity exact, layout legal")
    return 0


def cmd_tco(args: argparse.Namespace) -> int:
    server = ServerExample(
        name="your-fleet",
        server_cost=args.server_cost,
        num_disks=args.disks,
        disk_street_price=args.disk_cost,
    )
    lstor = LstorBom(
        flash_and_dram=args.lstor_cost - 21.0,
        microcontroller=5.0,
        supercap_and_enclosure=16.0,
    )
    model = DatacenterCostModel(derived_disk_cost=server.derived_disk_cost, lstor=lstor)
    print(f"derived disk cost: ${server.derived_disk_cost:,.0f} "
          f"({server.derived_multiplier:.1f}x street price)")
    print(f"Lstor BOM:         ${lstor.total:,.0f}")
    print(f"TCO savings:       {model.raidp_savings_fraction():.1%} "
          "(bound 33.3%) for 2 replicas + 1 Lstor each vs triplication")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as experiments_main

    argv: List[str] = list(args.names)
    if args.full:
        argv.append("--full")
    return experiments_main(argv)


#: Glyph ramp for terminal sparklines (deterministic, 8 levels).
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: The flight-recorder tracks ``raidpctl trace`` draws: the rebuild's
#: contention with foreground I/O and the exposure it closes.
KEY_TRACKS = (
    "disk_io_latency:p50",
    "disk_io_latency:p99",
    "blocks_at_risk",
    "net_active_flows",
    "repair_bytes_total",
)


def sparkline(cells: Sequence[Optional[float]]) -> str:
    """One glyph per cell, the ramp normalized min..max over the cells
    that hold a value; a cell without one (``None``) stays blank, and a
    flat series renders as the lowest glyph."""
    present = [cell for cell in cells if cell is not None]
    if not present:
        return " " * len(cells)
    low = min(present)
    span = max(present) - low
    ramp = len(_SPARK_BLOCKS) - 1
    return "".join(
        " " if cell is None
        else _SPARK_BLOCKS[int((cell - low) / span * ramp + 0.5) if span > 0 else 0]
        for cell in cells
    )


def time_cells(
    samples: Sequence[Tuple[float, float]], start: float, end: float, width: int
) -> List[Optional[float]]:
    """``(ts, value)`` samples placed on a ``width``-cell time axis from
    ``start`` to ``end``: each cell averages the samples that fall in it
    (``fsum``, determinism) and is ``None`` when none does."""
    buckets: List[List[float]] = [[] for _ in range(width)]
    span = end - start
    for ts, value in samples:
        cell = min(width - 1, int((ts - start) / span * width)) if span > 0 else 0
        buckets[cell].append(value)
    return [fsum(bucket) / len(bucket) if bucket else None for bucket in buckets]


def render_recorder(events: List[TraceEvent], metadata: Dict[str, Any]) -> List[str]:
    """The flight-recorder section: per run, one sparkline per key
    telemetry track, every track on the run's one time axis of up to
    40 cells (a cell with no sample of the track is blank); then the
    verdict the producer stored as metadata."""
    tracks: Dict[int, Dict[str, List[Tuple[float, float]]]] = {}
    for event in events:
        if event.phase == "C" and event.category == "telemetry" and event.attrs:
            per_run = tracks.setdefault(event.run, {})
            per_run.setdefault(event.name, []).append((event.ts, event.attrs["value"]))
    lines: List[str] = []
    for run, series in sorted(tracks.items()):
        stamps = [ts for samples in series.values() for ts, _value in samples]
        ticks = len(set(stamps))
        start, end = min(stamps), max(stamps)
        lines += ["", f"flight recorder run={run}: {len(series)} tracks x {ticks} ticks"]
        for name in KEY_TRACKS:
            samples = series.get(name)
            if samples:
                values = [value for _ts, value in samples]
                cells = time_cells(samples, start, end, min(40, ticks))
                lines.append(
                    f"  {name:<20} {sparkline(cells)}  "
                    f"min {min(values):.4g}  max {max(values):.4g}"
                )
    if "ok" in metadata:
        verdict = "PASS" if metadata["ok"] else "FAIL"
        lines += [
            "",
            f"verdict: {verdict} seed={metadata.get('seed')} runs={metadata.get('runs')}",
        ]
        audit = metadata.get("audit")
        if audit is not None:
            waived = audit["violations"] - audit["unwaived"]
            lines.append(
                f"  audit: {audit['checks']} checks / {audit['audits']} audits, "
                f"{audit['violations']} violations ({waived} waived, "
                f"{audit['unwaived']} unwaived)"
            )
        lines += [f"  PROBLEM: {problem}" for problem in metadata.get("problems", [])]
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import load_trace, render_summary

    events, metadata = load_trace(args.file)
    print(f"{args.file}: {len(events)} events")
    print(render_summary(events, category=args.category, limit=args.limit))
    for line in render_recorder(events, metadata):
        print(line)
    return 0 if metadata.get("ok", True) else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.tools.profile import main as profile_main

    argv: List[str] = [args.experiment]
    if args.tasks is not None:
        argv += ["--tasks", str(args.tasks)]
    if args.limit is not None:
        argv += ["--limit", str(args.limit)]
    if args.json is not None:
        argv += ["--json", args.json]
    if args.full:
        argv.append("--full")
    return profile_main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "layout": cmd_layout,
        "bench": cmd_bench,
        "drill": cmd_drill,
        "tco": cmd_tco,
        "experiments": cmd_experiments,
        "trace": cmd_trace,
        "profile": cmd_profile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
