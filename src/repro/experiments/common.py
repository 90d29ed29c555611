"""Shared builders and scales for the simulation-backed experiments.

The paper's evaluation: a 16-node cluster, 100 GB working sets, 6 GB
superchunks, 64 MB blocks, five repetitions.  The default scale divides
the working set by ~12 (8 GiB) and averages three placement seeds, which
reproduces every ratio in the figures at interactive wall-clock cost; the
unoptimized (packet-granularity) configurations run on a further-reduced
set because they simulate every 64 KB packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.hdfs.config import DfsConfig
from repro.hdfs.filesystem import HdfsCluster
from repro.sim import snapshot
from repro.sim.cluster import ClusterSpec

#: Seeds averaged per configuration (the paper averages five runs).
DEFAULT_SEEDS = (1, 2, 3)


@dataclass(frozen=True)
class Scale:
    """Dataset sizes for one experiment run."""

    dataset: int = 8 * units.GiB
    unoptimized_dataset: int = 2 * units.GiB
    superchunk_size: int = 6 * units.GiB
    num_nodes: int = 16

    @classmethod
    def paper(cls) -> "Scale":
        return cls(dataset=100 * units.GB, unoptimized_dataset=10 * units.GB)


def pick_scale(full_scale: bool) -> Scale:
    return Scale.paper() if full_scale else Scale()


def build_hdfs(replication: int, scale: Scale, seed: int) -> HdfsCluster:
    return HdfsCluster(
        spec=ClusterSpec(num_nodes=scale.num_nodes),
        config=DfsConfig(replication=replication),
        seed=seed,
    )


def build_raidp(scale: Scale, seed: int, **raidp_kwargs: Any) -> RaidpCluster:
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=scale.num_nodes),
        config=DfsConfig(replication=2),
        raidp=RaidpConfig(**raidp_kwargs),
        superchunk_size=scale.superchunk_size,
        seed=seed,
    )


#: Aliases of the plain builders with one reader: the benchmark's span
#: tracer (``bench/trace.py::BUILDERS`` looks each name up on this
#: module).  No experiment calls them.
build_raidp_warm = build_raidp
build_hdfs_warm = build_hdfs


def warm_phase(
    tag: str,
    builder: Callable[[], Any],
    warmup: Callable[[Any], Any],
    **key_params: Any,
) -> Any:
    """Phase-snapshot builder: memoize ``builder`` *plus* its warmup.

    The cold path assembles the cluster, runs ``warmup`` on it (a
    failure-free ingest such as ``dfsio_write``, ``teragen``, or
    ``wordcount_input``), and snapshots the quiescent result; warm
    callers restore straight to the phase boundary.  The warmup is
    deterministic, so (tag, parameters) identifies the post-warmup
    state: replays that share a warmup -- fig9's and fig10's reads of
    one DFSIO dataset -- simulate it once per (topology, seed) per
    process.
    """

    def build() -> Any:
        dfs = builder()
        warmup(dfs)
        return dfs

    return snapshot.GLOBAL_STORE.get_or_build(
        snapshot.snapshot_key(tag, **key_params), build
    )


def build_hdfs_written(
    replication: int, scale: Scale, seed: int, dataset: Optional[int] = None
) -> HdfsCluster:
    """An HDFS cluster with the DFSIO dataset already ingested."""
    from repro.workloads.dfsio import dfsio_write

    nbytes = scale.dataset if dataset is None else dataset
    return warm_phase(
        "hdfs_written",
        lambda: build_hdfs(replication, scale, seed),
        lambda dfs: dfsio_write(dfs, nbytes),
        replication=replication,
        dataset=nbytes,
        nodes=scale.num_nodes,
        seed=seed,
    )


def build_raidp_written(
    scale: Scale, seed: int, dataset: Optional[int] = None, **raidp_kwargs: Any
) -> RaidpCluster:
    """A RAIDP cluster with the DFSIO dataset already ingested."""
    from repro.workloads.dfsio import dfsio_write

    nbytes = scale.dataset if dataset is None else dataset
    return warm_phase(
        "raidp_written",
        lambda: build_raidp(scale, seed, **raidp_kwargs),
        lambda dfs: dfsio_write(dfs, nbytes),
        dataset=nbytes,
        superchunk=scale.superchunk_size,
        nodes=scale.num_nodes,
        seed=seed,
        **raidp_kwargs,
    )
