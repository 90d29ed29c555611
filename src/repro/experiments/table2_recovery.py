"""Table 2: 6 GB superchunk recovery runtimes after a double disk failure.

Six system configurations x two NICs: RAIDP with byte-range vs
superchunk-wide locking at 4 MB vs 64 MB chunk sizes, plus a distributed
RAID-6 rebuild baseline that must read and decode every surviving disk to
reconstruct the two lost ones.

Task decomposition: RAIDP rows fan out per placement repetition (one
task per seed, each on a freshly built cluster), and each RAID-6 row is
one task.  Every rebuild stream runs its first chunk discretely and the
rest as one fluid ``Transfer`` body (DESIGN.md §4c), so every task takes
milliseconds and the whole table a fraction of a second.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.core.recovery import (
    RecoveryManager,
    RecoveryOptions,
    simulate_raid6_rebuild,
)
from repro.experiments.common import build_raidp, pick_scale
from repro.experiments.runner import ExperimentResult
from repro.sim.stats import mean

#: (lock mode, chunk size, paper seconds @10G, paper seconds @1G).
RAIDP_ROWS = [
    ("byte_range", 4 * units.MiB, 125.0, 827.0),
    ("byte_range", 64 * units.MiB, 160.0, 848.0),
    ("superchunk", 64 * units.MiB, 187.0, 850.0),
    ("superchunk", 4 * units.MiB, 211.0, 852.0),
]
#: (chunk size, paper seconds @10G, paper seconds @1G).
RAID6_ROWS = [
    (4 * units.MiB, 1823.0, 12300.0),
    (64 * units.MiB, 2227.0, 13146.0),
]

#: Seeds averaged per RAIDP row.  Recovery runtimes are placement-
#: insensitive at this scale, so one repetition reproduces the table;
#: passing more seeds turns each into its own task.
DEFAULT_SEEDS = (1,)

#: Task key: ("raidp", lock mode, chunk size, nic index, seed) or
#: ("raid6", chunk size, nic index, "write").  The RAID-6 key's trailing
#: "write" names the row's completion; ``bench/workloads.py`` looks the
#: row up by it.
TaskKey = Tuple


def tasks(
    full_scale: bool = False, seeds: Optional[Sequence[int]] = None
) -> List[TaskKey]:
    seeds = tuple(seeds) if seeds is not None else DEFAULT_SEEDS
    keys: List[TaskKey] = []
    for lock_mode, chunk, _paper_10g, _paper_1g in RAIDP_ROWS:
        for nic_index in (0, 1):
            for seed in seeds:
                keys.append(("raidp", lock_mode, chunk, nic_index, seed))
    for chunk, _paper_10g, _paper_1g in RAID6_ROWS:
        for nic_index in (0, 1):
            keys.append(("raid6", chunk, nic_index, "write"))
    return keys


def _nic_rate(nic_index: int) -> float:
    return units.gbps(10) if nic_index == 0 else units.gbps(1)


def run_task(key: TaskKey, full_scale: bool = False) -> float:
    """One task: a RAIDP repetition or a RAID-6 rebuild."""
    scale = pick_scale(full_scale)
    if key[0] == "raidp":
        _kind, lock_mode, chunk, nic_index, seed = key
        dfs = build_raidp(scale, seed=seed)
        manager = RecoveryManager(dfs)
        options = RecoveryOptions(
            lock_mode=lock_mode, chunk_size=chunk, nic_index=nic_index
        )
        report = manager.recover(("n0", "n1"), options, reconstruct_only=True)
        return report.duration
    # RAID-6 rebuilds both failed disks from all survivors.  Each of the
    # paper's disks carries 16 superchunks x 6 GB = 96 GB of data.
    _kind, chunk, nic_index, _write = key
    return simulate_raid6_rebuild(
        data_per_disk=16 * scale.superchunk_size,
        surviving_disks=scale.num_nodes - 2,
        chunk_size=chunk,
        nic_rate=_nic_rate(nic_index),
    )


def merge(
    keyed: Dict[TaskKey, float],
    full_scale: bool = False,
    seeds: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    seeds = tuple(seeds) if seeds is not None else DEFAULT_SEEDS
    result = ExperimentResult(
        experiment="table2",
        title="6 GB superchunk recovery runtimes (16-node cluster)",
        unit="seconds",
    )
    for lock_mode, chunk, paper_10g, paper_1g in RAIDP_ROWS:
        for nic_index, paper in ((0, paper_10g), (1, paper_1g)):
            nic = "10Gbps" if nic_index == 0 else "1Gbps"
            result.add(
                f"raidp {lock_mode} {chunk // units.MiB}MB @{nic}",
                mean(
                    keyed[("raidp", lock_mode, chunk, nic_index, seed)]
                    for seed in seeds
                ),
                paper,
            )
    for chunk, paper_10g, paper_1g in RAID6_ROWS:
        for nic_index, paper in ((0, paper_10g), (1, paper_1g)):
            nic = "10Gbps" if nic_index == 0 else "1Gbps"
            result.add(
                f"raid6 {chunk // units.MiB}MB @{nic}",
                keyed[("raid6", chunk, nic_index, "write")],
                paper,
            )
    result.notes = (
        "expected shape: byte-range/4MB fastest, superchunk/4MB slowest, "
        "the 1Gbps network flattens all RAIDP rows, RAID-6 an order of "
        "magnitude slower"
    )
    return result
