"""Phase snapshots and the task-grain decomposition.

The acceptance property of the phase snapshots: a snapshot-restored
cluster is *indistinguishable* from a cold-built one -- bitwise-identical
experiment fingerprints, at any job count, in any pool start-method.
These tests pin that property on a written RAIDP cluster and
fig9/fig10, plus the structural guarantees (quiescence gating, keyed
parameters, phase-split equivalence) that make it hold; ``ext-scale``,
whose points need no snapshot, is held to its single-simulator oracle
and to the sequential run under a spawn-context pool.
"""

import pickle

import pytest

from repro import units
from repro.core.recovery import (
    RecoveryManager,
    RecoveryOptions,
    simulate_raid6_read_phase,
    simulate_raid6_writeback_phase,
)
from repro.errors import SimulationError
from repro.experiments.common import Scale, build_raidp_written
from repro.sim import snapshot
from repro.sim.engine import Simulator
from tests.oracles import ext_scale_raidp_single_sim, raid6_rebuild_single_sim


@pytest.fixture(autouse=True)
def _fresh_store():
    """Isolate every test from the process-wide snapshot store."""
    snapshot.GLOBAL_STORE.clear()
    yield
    snapshot.GLOBAL_STORE.clear()


def _cold_store(monkeypatch):
    """Every build runs cold: the store hands back what the builder made."""
    monkeypatch.setattr(
        snapshot.GLOBAL_STORE, "get_or_build", lambda key, builder: builder()
    )


def _recover(dfs, lock_mode="byte_range", chunk=64 * units.MiB, nic_index=0):
    manager = RecoveryManager(dfs)
    report = manager.recover(
        ("n0", "n1"),
        RecoveryOptions(lock_mode=lock_mode, chunk_size=chunk, nic_index=nic_index),
        reconstruct_only=True,
    )
    return report.duration


# ----------------------------------------------------------------------
# Core identity: cold-built vs snapshot-restored clusters.
# ----------------------------------------------------------------------
#: A written RAIDP cluster small enough to build in a fraction of a second.
_WRITTEN = dict(scale=Scale(), seed=1, dataset=256 * units.MiB)


def test_cold_vs_warm_recovery_bitwise_identical(monkeypatch):
    warm_first = _recover(build_raidp_written(**_WRITTEN))  # cold build + capture
    warm_again = _recover(build_raidp_written(**_WRITTEN))  # pure restore
    assert snapshot.GLOBAL_STORE.hits == 1
    _cold_store(monkeypatch)
    cold = _recover(build_raidp_written(**_WRITTEN))
    assert cold == warm_first == warm_again


def test_restored_clusters_share_nothing():
    first = build_raidp_written(**_WRITTEN)
    second = build_raidp_written(**_WRITTEN)
    assert first is not second
    assert first.sim is not second.sim
    # Mutating one must not leak into the other.
    written_at = second.sim.now
    _recover(first)
    assert first.sim.now > written_at
    assert second.sim.now == written_at


def test_snapshot_requires_quiescence():
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        pickle.dumps(sim)


def test_snapshot_keys_isolate_parameters():
    keys = {
        snapshot.snapshot_key("build", nodes=16, seed=1),
        snapshot.snapshot_key("build", nodes=16, seed=2),
        snapshot.snapshot_key("build", nodes=64, seed=1),
        snapshot.snapshot_key("other", nodes=16, seed=1),
    }
    assert len(keys) == 4


def test_tracer_bypasses_snapshot_store():
    from repro.obs.tracer import Tracer, capture as trace_capture

    with trace_capture(Tracer()):
        build_raidp_written(**_WRITTEN)
    assert snapshot.GLOBAL_STORE.hits == 0
    assert snapshot.GLOBAL_STORE.misses == 0


def test_get_or_build_simulates_warmup_once():
    from types import SimpleNamespace

    key = snapshot.snapshot_key("build-once", n=1)
    calls = []

    def build():
        calls.append(1)
        return SimpleNamespace(sim=SimpleNamespace(now=42.0), payload=[1, 2, 3])

    first = snapshot.GLOBAL_STORE.get_or_build(key, build)
    assert calls == [1]
    second = snapshot.GLOBAL_STORE.get_or_build(key, build)
    assert calls == [1]  # builder + warmup ran exactly once
    assert second is not first and second.sim is not first.sim
    assert second.payload == [1, 2, 3]
    assert second.sim.now == 42.0


def test_empty_clusters_are_built_not_stored():
    """table2 and fig8 measure from empty clusters, which cost as much
    to restore as to build: neither touches the store."""
    from repro.experiments import fig8_write, table2_recovery

    table2_recovery.run_task(("raidp", "byte_range", 64 * units.MiB, 0, 1))
    fig8_write.run_task(("hdfs", 3, "small", 1))
    assert (snapshot.GLOBAL_STORE.hits, snapshot.GLOBAL_STORE.misses) == (0, 0)


def test_core_classes_restore_through_inline_state():
    """Snapshot-restored objects must keep CPython's inline attribute
    storage (the default pickle path materializes ``__dict__`` and makes
    every subsequent attribute read measurably slower)."""
    from repro.core.cluster import RaidpCluster
    from repro.hdfs.config import DfsConfig
    from repro.sim.engine import Simulator as Sim
    from repro.sim.snapshot import InlineState

    assert issubclass(RaidpCluster, InlineState)
    assert RaidpCluster.__setstate__ is InlineState.__setstate__
    cfg = pickle.loads(pickle.dumps(DfsConfig(replication=2)))
    assert cfg.replication == 2  # frozen dataclass survives object.__setattr__
    del Sim  # silence linters: imported to prove no InlineState (slots path)


# ----------------------------------------------------------------------
# Warm-vs-cold identity at the experiment level.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["fig9", "fig10"])
def test_figure_rows_warm_vs_cold_identical(name, monkeypatch):
    """fig9/10 emit bitwise-identical rows with memoization on.

    Three passes: a first warm pass (populates the store; misses return
    the built clusters), a second warm pass (every build/phase restored
    from snapshots), and a cold pass with the store substituted by one
    that always builds.  All three row sets must match exactly.
    """
    from repro.experiments.parallel import run_many

    def run_once():
        (result,) = run_many([name], jobs=1, seeds=(1,))
        return result.rows

    first = run_once()
    restored = run_once()
    assert snapshot.GLOBAL_STORE.hits > 0  # second pass ran from snapshots
    _cold_store(monkeypatch)
    cold = run_once()
    assert first == restored == cold


# ----------------------------------------------------------------------
# RAID-6 phase split: two simulators chained on the boundary time must
# reproduce the monolithic schedule exactly.
# ----------------------------------------------------------------------
def test_raid6_phase_split_matches_monolith():
    kwargs = dict(
        data_per_disk=16 * units.GiB,
        surviving_disks=14,
        chunk_size=64 * units.MiB,
        nic_rate=units.gbps(10),
    )
    monolith = raid6_rebuild_single_sim(**kwargs)
    boundary = simulate_raid6_read_phase(**kwargs)
    split = simulate_raid6_writeback_phase(boundary, **kwargs)
    assert 0.0 < boundary < split
    assert split == monolith  # bitwise, not approx


# ----------------------------------------------------------------------
# Experiment-level identity across job counts; ext-scale's one-task point.
# ----------------------------------------------------------------------
def test_table2_cheap_rows_jobs1_vs_jobs2_identical():
    """The four 64 MB RAIDP rebuilds.  The 64 MB RAID-6 rows, with their
    gather -> writeback dependency, are ``test_parallel_runner``'s."""
    from repro.experiments import table2_recovery as t2
    from repro.experiments.parallel import TaskSpec, run_specs

    specs = [
        TaskSpec("repro.experiments.table2_recovery", key, False)
        for key in t2.tasks()
        if key[0] == "raidp" and key[2] == 64 * units.MiB
    ]
    assert run_specs(specs, jobs=1) == run_specs(specs, jobs=2)


def test_ext_scale_point_matches_single_sim_oracle():
    from repro.experiments import ext_scale

    oracle = ext_scale_raidp_single_sim(16, 1)
    point = ext_scale.run_task(("raidp", 16, 1))
    # write s, net GB/node, recovery s -- all bitwise; the point's 4th
    # element is the flight-recorder SLO digest of each phase, which the
    # oracle (no sampler) does not produce.  Sampling never moves the
    # schedule, and neither does re-binding the live simulator.
    assert point[:3] == oracle
    assert set(point[3]) == {"write", "recovery"}
    # Each phase was sampled: the recovery's sampler is bound to the
    # live simulator, not left unread.
    assert all(phase["p99_worst"] > 0 for phase in point[3].values())


def test_ext_scale_spawn_context_matches_sequential(monkeypatch):
    """A spawn-context pool run: each point is one task, built and run
    in a fresh interpreter, and must produce the sequential answer
    bit-for-bit."""
    import multiprocessing

    from repro.experiments import parallel
    from repro.experiments.parallel import TaskSpec, run_specs

    specs = [
        TaskSpec("repro.experiments.ext_scale", ("raidp", 16, 1), False),
        TaskSpec("repro.experiments.ext_scale", ("hdfs3", 16, 1), False),
    ]
    sequential = run_specs(specs, jobs=1)
    monkeypatch.setattr(
        parallel, "_pool_context", lambda: multiprocessing.get_context("spawn")
    )
    assert run_specs(specs, jobs=2) == sequential


# ----------------------------------------------------------------------
# Parallel runner: dependency plumbing.
# ----------------------------------------------------------------------
def test_run_specs_rejects_missing_dependency():
    from repro.experiments.parallel import TaskSpec, run_specs

    specs = [
        TaskSpec(
            "repro.experiments.table2_recovery",
            ("raid6", 64 * units.MiB, 0, "write"),
            False,
        )
    ]
    with pytest.raises(ValueError, match="depends on"):
        run_specs(specs, jobs=1)

