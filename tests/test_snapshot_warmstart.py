"""Phase snapshots.

The acceptance property of the phase snapshots: a snapshot-restored
cluster is *indistinguishable* from a cold-built one -- bitwise-identical
experiment fingerprints.  These tests pin that property on a written
RAIDP cluster and fig9/fig10, plus the structural guarantees (quiescence
gating, keyed parameters) that make it hold.
"""

import pickle

import pytest

from repro import units
from repro.core.recovery import RecoveryManager, RecoveryOptions
from repro.errors import SimulationError
from repro.experiments.common import Scale, build_raidp_written
from repro.sim import snapshot
from repro.sim.engine import Simulator


def _clear(store):
    store._memory.clear()
    store.hits = 0
    store.misses = 0


@pytest.fixture(autouse=True)
def _fresh_store():
    """Isolate every test from the process-wide snapshot store."""
    _clear(snapshot.GLOBAL_STORE)
    yield
    _clear(snapshot.GLOBAL_STORE)


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
