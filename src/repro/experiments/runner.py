"""Experiment registry, result type, and CLI entry point."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class ExperimentResult:
    """Output of one regenerated table/figure.

    ``rows`` are (label, measured, paper_value) triples; ``paper_value``
    is None for rows the paper gives no number for.  ``unit`` describes
    the measured quantity.
    """

    experiment: str
    title: str
    rows: List[Tuple[str, float, Optional[float]]] = field(default_factory=list)
    unit: str = ""
    notes: str = ""

    def add(self, label: str, measured: float, paper: Optional[float] = None) -> None:
        self.rows.append((label, measured, paper))

    def render(self) -> str:
        width = max((len(label) for label, _m, _p in self.rows), default=20)
        lines = [f"== {self.experiment}: {self.title} ==".rstrip()]
        header = f"{'row':<{width}}  {'measured':>12}  {'paper':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for label, measured, paper in self.rows:
            paper_text = f"{paper:>10.2f}" if paper is not None else f"{'-':>10}"
            lines.append(f"{label:<{width}}  {measured:>12.2f}  {paper_text}")
        if self.unit:
            lines.append(f"(unit: {self.unit})")
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


#: experiment id -> (module, title).
REGISTRY: Dict[str, Tuple[str, str]] = {
    "fig1": ("repro.experiments.fig1_design_space", "design space points"),
    "table1": ("repro.experiments.table1_properties", "property matrix"),
    "fig7": ("repro.experiments.fig7_cost", "datacenter cost analysis"),
    "fig8": ("repro.experiments.fig8_write", "TestDFSIO write performance"),
    "fig9": ("repro.experiments.fig9_read", "TestDFSIO read performance"),
    "fig10": ("repro.experiments.fig10_benchmarks", "RAIDP vs HDFS-3 benchmarks"),
    "table2": ("repro.experiments.table2_recovery", "superchunk recovery runtimes"),
    # Beyond the paper: its §2 claims and §8 future work, quantified.
    "ext-durability": (
        "repro.experiments.ext_durability",
        "durability vs availability (extension)",
    ),
    "ext-updates": (
        "repro.experiments.ext_updates",
        "in-place updates vs rewrites (extension)",
    ),
    "ext-ssd": ("repro.experiments.ext_ssd", "the write family on flash (extension)"),
    "ext-scale": (
        "repro.experiments.ext_scale",
        "large-cluster scale-out sweep (extension)",
    ),
}


def list_experiments() -> List[str]:
    return sorted(REGISTRY)


def run_experiment(
    name: str,
    full_scale: bool = False,
    seeds: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
) -> "ExperimentResult":
    """Regenerate one registered experiment (see :func:`run_many`)."""
    from repro.experiments.parallel import run_many

    return run_many([name], full_scale=full_scale, jobs=jobs, seeds=seeds)[0]


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.experiments.parallel import JOBS_ENV_VAR, run_many

    parser = argparse.ArgumentParser(
        prog="raidp-experiments",
        description="Regenerate the RAIDP paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (fig1, table1, fig7, fig8, fig9, fig10, table2, "
        "ext-durability, ext-updates, ext-ssd, ext-scale) or 'all'; empty "
        "lists the registry",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at paper scale (100 GB datasets; slow)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="fan independent sweep points out to N worker processes "
        f"(default: ${JOBS_ENV_VAR} or 1; 0 = all cores); results are "
        "row-for-row identical at any job count",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a simulation trace in Chrome trace format (load in "
        "Perfetto or chrome://tracing).  Forces --jobs 1 so every "
        "simulation runs in-process.",
    )
    parser.add_argument(
        "--trace-categories",
        metavar="CATS",
        default=None,
        help="comma-separated event categories to record (e.g. "
        "'recovery,fault,net'); default records everything, which for a "
        "prefilled run can be millions of disk-level events",
    )
    args = parser.parse_args(argv)
    if not args.experiments:
        print("available experiments:")
        for name in list_experiments():
            print(f"  {name:<8} {REGISTRY[name][1]}")
        return 0
    names = list_experiments() if args.experiments == ["all"] else args.experiments
    for name in names:
        if name not in REGISTRY:
            raise KeyError(f"unknown experiment {name!r}; known: {list_experiments()}")
    if args.trace:
        from repro.obs.export import write_trace
        from repro.obs.tracer import Tracer, capture

        categories = (
            [c.strip() for c in args.trace_categories.split(",") if c.strip()]
            if args.trace_categories
            else None
        )
        try:
            tracer = Tracer(categories=categories)
        except ValueError as error:
            parser.error(f"--trace-categories: {error}")
        # Worker processes would trace into their own interpreters;
        # jobs=1 keeps every simulation (and its tracer) in-process.
        with capture(tracer):
            for name in names:
                print(run_experiment(name, full_scale=args.full, jobs=1).render())
                print()
        write_trace(tracer, args.trace)
        print(
            f"trace: {len(tracer)} events from "
            f"{len(tracer.run_labels)} simulation(s) -> {args.trace}"
        )
    else:
        for result in run_many(names, full_scale=args.full, jobs=args.jobs):
            print(result.render())
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
