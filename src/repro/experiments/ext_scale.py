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
256 nodes a write burst keeps hundreds of flows in flight, and both cost
what a burst touches rather than the cluster size (DESIGN.md section
7.5).  HDFS-3 placement reads each DataNode's health once per block, the
floor of a bit-exact stock policy.

Each point is one task: a RAIDP point ingests and then fails its worst
pair on the same live cluster, each phase under its own sampler, so no
cluster is pickled between phases.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager, RecoveryOptions
from repro.experiments.parallel import fan_out
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

#: Task key: (scheme, num_nodes, placement seed).  RAIDP points run
#: under the flight recorder and carry a 4th result element -- per-phase
#: disk-latency SLO summaries.
TaskKey = Tuple[str, int, int]

#: Sampling cadence for the phase SLO summaries (simulated seconds).
SLO_SAMPLE_INTERVAL = 0.25


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
            payload_mode="tokens",
            seed=seed,
        )
    return RaidpCluster(
        spec=spec,
        config=DfsConfig(replication=2, block_size=BLOCK_SIZE),
        raidp=RaidpConfig(),
        superchunk_size=SUPERCHUNK_SIZE * scale,
        superchunks_per_disk=SUPERCHUNKS_PER_DISK,
        payload_mode="tokens",
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
    report = manager.recover_double_failure(
        pair[0],
        pair[1],
        options=RecoveryOptions(),
        remirror_rest=False,
        install=False,
    )
    return report.duration


def _phase_slo(sampler: Any) -> Dict[str, float]:
    """Small, picklable SLO digest of one sampled phase.

    Scores the default disk-latency specs over this run's window and
    keeps only numbers: the worst windowed p50/p99 and a 0/1 verdict
    (so seed-averaging in merge() turns it into a pass fraction).
    """
    from repro.obs.slo import default_slos, evaluate_slos

    latency = [s for s in default_slos() if s.series.startswith("disk_io_latency")]
    digest: Dict[str, float] = {}
    ok = 1.0
    for result in evaluate_slos(sampler.store, latency, run=sampler.run):
        label = result.spec.series.rsplit(":", 1)[1]
        digest[f"{label}_worst"] = float(result.worst or 0.0)
        if not result.ok:
            ok = 0.0
    digest["slo_ok"] = ok
    return digest


def run_task(key: TaskKey, full_scale: bool = False) -> Tuple:
    """One sweep point.

    - hdfs3 keys return (write seconds, net GB per node, None).
    - raidp keys return (write seconds, net GB per node, recovery
      seconds, {"write": slo, "recovery": slo}): the worst-pair recovery
      runs on the ingested cluster itself, its simulator re-bound to a
      second sampler so each phase gets its own SLO digest.
    """
    from repro.obs.timeseries import capture
    from repro.workloads.dfsio import dfsio_write

    scheme, num_nodes, seed = key
    scale = 8 if full_scale else 1
    dataset = num_nodes * BYTES_PER_NODE * scale
    if scheme == "hdfs3":
        dfs = _build(scheme, num_nodes, seed)
        write = dfsio_write(dfs, dataset)
        return write.runtime, dfs.switch.total_bytes / num_nodes / units.GB, None
    with capture(interval=SLO_SAMPLE_INTERVAL) as sampler:
        dfs = _build(scheme, num_nodes, seed, scale)
        sampler.watch(dfs)
        write = dfsio_write(dfs, dataset)
    per_node_gb = dfs.switch.total_bytes / num_nodes / units.GB
    slo = {"write": _phase_slo(sampler)}
    with capture(interval=SLO_SAMPLE_INTERVAL) as sampler:
        dfs.sim.bind_observers()
        sampler.watch(dfs)
        recovery_s = _recover_worst_pair(dfs)
    slo["recovery"] = _phase_slo(sampler)
    return write.runtime, per_node_gb, recovery_s, slo


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
                for phase in ("write", "recovery"):
                    rows = [s[3][phase] for s in samples]
                    result.add(
                        f"{scheme} {phase} p99 worst @{num_nodes}",
                        mean(r["p99_worst"] for r in rows),
                    )
                    result.add(
                        f"{scheme} {phase} SLO ok @{num_nodes}",
                        mean(r["slo_ok"] for r in rows),
                    )
    result.notes = (
        "expected shape: write runtime and per-node network ~flat in "
        "cluster size for both schemes (scale-out); RAIDP's per-node "
        "network ~half of HDFS-3's (1 remote copy vs 2); RAIDP recovery "
        "~flat (rebuild cost is per-disk, not per-cluster)"
    )
    return result


def run(
    full_scale: bool = False,
    seeds: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    keyed = fan_out(__name__, full_scale=full_scale, seeds=seeds, jobs=jobs)
    return merge(keyed, full_scale=full_scale, seeds=seeds)
