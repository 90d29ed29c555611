"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism and shows the effect the paper
attributes to it: the writer lock, block accumulation, journal sync
granularity, the recovery planner's optimum, and the read-modify-write cache.
"""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.core.recovery import RecoveryManager
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from repro.workloads.dfsio import dfsio_write
from tests.oracles import min_remirror_load

DATASET = 2 * units.GiB
SPEC = ClusterSpec(num_nodes=16)


def raidp_runtime(**kwargs):
    dfs = RaidpCluster(
        spec=SPEC,
        config=DfsConfig(replication=2),
        raidp=RaidpConfig(**kwargs),
        seed=1,
    )
    return dfsio_write(dfs, DATASET).runtime


def test_ablation_accumulation_and_writer_lock(benchmark):
    """The §5 optimizations: accumulate + lock vs per-packet streaming."""

    def measure():
        return {
            "optimized": raidp_runtime(optimized=True),
            "unoptimized": raidp_runtime(optimized=False),
        }

    runtimes = benchmark.pedantic(measure, rounds=1, iterations=1)
    # The paper's Fig. 8: packet-granularity journaling is catastrophic.
    assert runtimes["unoptimized"] > 5 * runtimes["optimized"]


def test_ablation_journal_overhead(benchmark):
    """Journal on/off under the optimized path: a small, bounded cost."""

    def measure():
        return {
            "journal": raidp_runtime(),
            "no_journal": raidp_runtime(enable_journal=False),
        }

    runtimes = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = runtimes["journal"] / runtimes["no_journal"] - 1
    assert 0.0 < overhead < 0.25


def test_ablation_parity_overhead(benchmark):
    """Lstor parity updates on/off: the +lstor increment of Fig. 8."""

    def measure():
        return {
            "parity": raidp_runtime(enable_journal=False),
            "no_parity": raidp_runtime(enable_parity=False, enable_journal=False),
        }

    runtimes = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = runtimes["parity"] / runtimes["no_parity"] - 1
    assert 0.0 < overhead < 0.25


def test_ablation_rmw_cache_sweep(benchmark):
    """The update-oriented penalty shrinks as old data caches better."""

    def measure():
        return [
            raidp_runtime(update_oriented=True, old_data_cache_fraction=fraction)
            for fraction in (0.0, 0.5, 1.0)
        ]

    cold, warm, hot = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert cold > warm > hot


def test_ablation_recovery_planner(benchmark):
    """The remirror plan places as many orphans as any legal,
    exchange-free plan, at the brute-force minimum receiver load."""
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=12),
        config=DfsConfig(block_size=units.MiB, replication=2),
        raidp=RaidpConfig(),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=4,
        seed=1,
    )

    def writers():
        procs = [
            dfs.sim.process(c.write_file(f"/f{i}", 3 * units.MiB))
            for i, c in enumerate(dfs.clients)
        ]
        yield dfs.sim.all_of(procs)

    dfs.sim.run_process(writers())
    dfs.namenode.mark_datanode_dead("n0")
    dfs.layout.remove_disk("n0")
    plan = benchmark.pedantic(
        lambda: RecoveryManager(dfs).plan_remirror("n0"), rounds=1, iterations=1
    )
    load = sum(dfs.map.load_of_disk(receiver) for _sc, _s, receiver in plan.moves)
    assert (len(plan.moves), load) == min_remirror_load(dfs, "n0")


def test_ablation_superchunk_size(benchmark):
    """Smaller superchunks mean smaller Lstors at unchanged write cost."""

    def measure():
        runtimes = {}
        for sc_size in (2 * units.GiB, 6 * units.GiB):
            dfs = RaidpCluster(
                spec=SPEC,
                config=DfsConfig(replication=2),
                raidp=RaidpConfig(),
                superchunk_size=sc_size,
                seed=1,
            )
            runtimes[sc_size] = dfsio_write(dfs, DATASET).runtime
        return runtimes

    runtimes = benchmark.pedantic(measure, rounds=1, iterations=1)
    small, large = runtimes[2 * units.GiB], runtimes[6 * units.GiB]
    assert small == pytest.approx(large, rel=0.15)
