"""Timing experiments move no payload bytes.

Every experiment runs on the same payloads as the chaos soak: GF(256)
combinations of mint terms that parity upkeep, partial updates and a
rebuild combine term by term, through one Lstor or a stack.  One run of
each kind that once needed bytes draws no PCG64 stream here, and its
tracemalloc peak stays below one of its blocks: a single drawn block
would cross it.
"""

import tracemalloc

import pytest

from repro import units
from repro.core.recovery import RecoveryManager
from repro.experiments import ext_scale, ext_updates, fig8_write, table2_recovery
from repro.experiments.common import Scale, build_raidp
from repro.hdfs.config import DfsConfig
from repro.storage import payload as payload_module
from repro.workloads.dfsio import dfsio_write


def stacked_write_and_rebuild():
    """Two stacked Lstors per disk at the default scale: the DFSIO
    dataset, then one sharing pair's superchunk rebuilt through the RS
    rows."""
    dfs = build_raidp(Scale(), 1, lstors_per_disk=2)
    dfsio_write(dfs, Scale().dataset)
    disks = dfs.layout.disks
    pair = next(
        (a, b)
        for i, a in enumerate(disks)
        for b in disks[i + 1:]
        if dfs.layout.shared(a, b) is not None
    )
    assert RecoveryManager(dfs).recover(pair, reconstruct_only=True).reconstructed

#: run -> (the run, its cluster's block size).
RUNS = {
    "fig8 raidp opt +journal": (
        lambda: fig8_write.run_task(("raidp", "raidp opt: +journal", "full", 1)),
        DfsConfig().block_size,
    ),
    "table2 byte_range 64MB": (
        lambda: table2_recovery.run_task(("raidp", "byte_range", 64 * units.MiB, 0, 1)),
        DfsConfig().block_size,
    ),
    "ext-scale raidp 64 nodes": (
        lambda: ext_scale.run_task(("raidp", 64, 1)),
        ext_scale.BLOCK_SIZE,
    ),
    "ext-updates": (ext_updates.run, DfsConfig().block_size),
    "raidp 2 stacked lstors write + rebuild": (
        stacked_write_and_rebuild,
        DfsConfig().block_size,
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_experiment_draws_no_mint(name, monkeypatch):
    run, block_size = RUNS[name]
    draws = []
    real_draw = payload_module._draw

    def draw(seed, length):
        draws.append(length)
        return real_draw(seed, length)

    monkeypatch.setattr(payload_module, "_draw", draw)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == []
    assert peak < block_size
