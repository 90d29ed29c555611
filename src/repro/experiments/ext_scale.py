"""Extension: large-cluster scale-out (16 / 64 / 128 / 256 nodes).

The paper evaluates RAIDP on 16 nodes; the parity-declustering and
warehouse-scale literature it cites gets its results from sweeping much
larger disk counts.  This sweep grows the cluster to 256 nodes under a
fixed per-node working set and reports, per replication scheme:

- DFSIO write runtime (should stay ~flat: writes are pipeline-local),
- double-failure recovery time (RAIDP: one superchunk from Lstor parity
  plus the dead disk's surviving mirrors -- independent of cluster size),
- accumulated network GB per node (RAIDP's 2 copies vs HDFS-3's 3).

The sweep leans on the incremental fair-share solver and on placement
that reads the writer's own slot tables and a per-disk load tally: at
256 nodes an HDFS-3 write burst is one component of about a thousand
flows, and every finished block pipeline re-solves it.  A departure
resumes the component's last solve from the earliest round it changed,
so the 256-node write's 375 solves take about 30k filling steps rather
than 240k (DESIGN.md section 7.5).  Stock HDFS-3 placement, which reads
every DataNode's health and shuffles twice per block, is now that
point's largest cost: the floor of a bit-exact stock policy.

Each point is one task: a RAIDP point ingests and then fails its worst
pair on the same live cluster, so no cluster is pickled between phases.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager
from repro.experiments.runner import ExperimentResult
from repro.hdfs.config import DfsConfig
from repro.hdfs.filesystem import HdfsCluster
from repro.sim.cluster import ClusterSpec

#: Cluster sizes swept (the paper's 16 plus three scale-out points).
SIZES = (16, 64, 128, 256)
SCHEMES = ("hdfs3", "raidp")

#: One placement seed: the sweep is size- not placement-sensitive.
SCALE_SEEDS = (1,)

#: Per-node working set and layout constants, sized so the 256-node
#: point stays interactive at smoke scale (full scale multiplies the
#: working set and the superchunk size by 8).
BLOCK_SIZE = 8 * units.MiB
BYTES_PER_NODE = 32 * units.MiB
SUPERCHUNK_SIZE = 32 * units.MiB
SUPERCHUNKS_PER_DISK = 8

#: Task key: (scheme, num_nodes, placement seed).
TaskKey = Tuple[str, int, int]


def tasks(
    full_scale: bool = False, seeds: Optional[Sequence[int]] = None
) -> List[TaskKey]:
    seeds = tuple(seeds) if seeds is not None else SCALE_SEEDS
    return [
        (scheme, num_nodes, seed)
        for num_nodes in SIZES
        for scheme in SCHEMES
        for seed in seeds
    ]


def _build(scheme: str, num_nodes: int, seed: int, scale: int = 1) -> Any:
    """The point's empty cluster; ``scale`` grows RAIDP's superchunks
    with the dataset, so a scaled ingest still fits the layout."""
    spec = ClusterSpec(num_nodes=num_nodes)
    if scheme == "hdfs3":
        return HdfsCluster(
            spec=spec,
            config=DfsConfig(replication=3, block_size=BLOCK_SIZE),
            seed=seed,
        )
    return RaidpCluster(
        spec=spec,
        config=DfsConfig(replication=2, block_size=BLOCK_SIZE),
        raidp=RaidpConfig(),
        superchunk_size=SUPERCHUNK_SIZE * scale,
        superchunks_per_disk=SUPERCHUNKS_PER_DISK,
        seed=seed,
    )


def _recover_worst_pair(dfs: RaidpCluster) -> float:
    # Fail the first superchunk-sharing disk pair: the paper's worst case
    # (one superchunk lost on both copies, rebuilt via Lstor parity).
    disks = dfs.layout.disks
    pair = next(
        (a, b)
        for i, a in enumerate(disks)
        for b in disks[i + 1 :]
        if dfs.layout.shared(a, b) is not None
    )
    manager = RecoveryManager(dfs)
    report = manager.recover(pair, reconstruct_only=True)
    return report.duration


def run_task(key: TaskKey, full_scale: bool = False) -> Tuple:
    """One sweep point.

    - hdfs3 keys return (write seconds, net GB per node, None).
    - raidp keys return (write seconds, net GB per node, recovery
      seconds): the worst-pair recovery runs on the ingested cluster
      itself.
    """
    from repro.workloads.dfsio import dfsio_write

    scheme, num_nodes, seed = key
    scale = 8 if full_scale else 1
    dataset = num_nodes * BYTES_PER_NODE * scale
    if scheme == "hdfs3":
        dfs = _build(scheme, num_nodes, seed)
        write = dfsio_write(dfs, dataset)
        return write.runtime, dfs.switch.total_bytes / num_nodes / units.GB, None
    dfs = _build(scheme, num_nodes, seed, scale)
    write = dfsio_write(dfs, dataset)
    per_node_gb = dfs.switch.total_bytes / num_nodes / units.GB
    return write.runtime, per_node_gb, _recover_worst_pair(dfs)


def merge(
    keyed: Dict[TaskKey, Tuple],
    full_scale: bool = False,
    seeds: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    from repro.sim.stats import mean

    seeds = tuple(seeds) if seeds is not None else SCALE_SEEDS
    result = ExperimentResult(
        experiment="ext-scale",
        title="large-cluster scale-out: write, recovery, per-node network",
        unit="seconds (write/recovery rows), GB (network rows)",
    )
    for num_nodes in SIZES:
        for scheme in SCHEMES:
            samples = [keyed[(scheme, num_nodes, seed)] for seed in seeds]
            result.add(f"{scheme} write @{num_nodes}", mean(s[0] for s in samples))
            result.add(
                f"{scheme} net GB/node @{num_nodes}", mean(s[1] for s in samples)
            )
            if scheme == "raidp":
                result.add(
                    f"{scheme} recovery @{num_nodes}",
                    mean(s[2] for s in samples),
                )
    result.notes = (
        "expected shape: write runtime and per-node network ~flat in "
        "cluster size for both schemes (scale-out); RAIDP's per-node "
        "network ~half of HDFS-3's (1 remote copy vs 2); RAIDP recovery "
        "~flat (rebuild cost is per-disk, not per-cluster)"
    )
    return result
