"""Smoke-scale fingerprints and the ext-scale sweep.

Two guarantees ride on the incremental network solver:

- **Fingerprint stability**: a full workload run under the incremental
  solver produces bitwise-identical results to the brute-force reference
  (``tests.oracles.ReferenceSwitch``) and to itself, run twice.
- **Scale-out tractability**: the ext-scale sweep's largest point (256
  nodes) completes at smoke scale and shows the expected shape, and a
  512-node RAIDP ingest and a 128-node HDFS-3 ingest reproduce their
  pinned simulated results.

The two cheap Table 2 RAIDP rows (64 MB chunks @10G) are pinned the same
way -- seconds by ``float.hex`` plus the solver's and the engine's exact
work counters -- on the fluid lane and on its per-chunk oracle, so a
host-cost change in the reconstruction path has to show that it moved
no simulated float.  The four RAID-6 rows are pinned by seconds alone.
"""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.hdfs.config import DfsConfig
from repro.sim import cluster as sim_cluster
from repro.sim.cluster import ClusterSpec
from repro.sim.network import Switch
from repro.workloads.dfsio import dfsio_read, dfsio_write
from tests.oracles import (
    ReferenceSwitch,
    discrete_lane,
    ext_scale_raidp_single_sim,
    node_traffic,
)


def _fingerprint(switch_class, monkeypatch, seed=42):
    """One smoke-scale RAIDP workload run, reduced to a hashable tuple."""
    monkeypatch.setattr(sim_cluster, "Switch", switch_class)
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(replication=2),
        raidp=RaidpConfig(),
        payload_mode="tokens",
        seed=seed,
    )
    assert type(dfs.switch) is switch_class
    write = dfsio_write(dfs, units.GiB)
    read = dfsio_read(dfs)
    placements = tuple(
        (loc.block.name, tuple(loc.datanodes), loc.sc_id, loc.slot)
        for loc in dfs.namenode.all_blocks()
    )
    traffic = tuple(
        (name, stats.bytes_sent, stats.bytes_received, stats.flows_started, stats.flows_finished)
        for name, stats in sorted(node_traffic(dfs.switch).items())
    )
    return (write.runtime, write.network_bytes, read.runtime, placements, traffic)


def test_incremental_solver_fingerprint_matches_reference(monkeypatch):
    """The incremental solver changes wall-clock cost, not results."""
    incremental = _fingerprint(Switch, monkeypatch)
    reference = _fingerprint(ReferenceSwitch, monkeypatch)
    assert incremental == reference


def test_incremental_solver_fingerprint_is_stable(monkeypatch):
    assert _fingerprint(Switch, monkeypatch) == _fingerprint(Switch, monkeypatch)


def test_flow_accounting_balances_after_workload():
    """Every started flow finishes once the workload drains."""
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(replication=2),
        raidp=RaidpConfig(),
        payload_mode="tokens",
        seed=7,
    )
    dfsio_write(dfs, units.GiB)
    started = sum(s.flows_started for s in node_traffic(dfs.switch).values())
    finished = sum(s.flows_finished for s in node_traffic(dfs.switch).values())
    assert started > 0
    assert started == finished


def test_ext_scale_256_node_point_completes_and_has_shape():
    """The sweep's largest point runs at smoke scale (incremental solver)."""
    from repro.experiments.ext_scale import run_task

    write_s, per_node_gb, recovery_s = run_task(("raidp", 256, 1))
    assert write_s > 0
    assert recovery_s > 0
    assert per_node_gb > 0
    # Scale-out: the same per-node working set on 16 nodes must cost
    # about the same per node as on 256 (write pipelines are local).
    write_16, per_node_gb_16 = run_task(("raidp", 16, 1))[:2]
    assert write_s == pytest.approx(write_16, rel=0.25)
    assert per_node_gb == pytest.approx(per_node_gb_16, rel=0.25)


def test_ext_scale_point_matches_single_sim_oracle():
    from repro.experiments import ext_scale

    oracle = ext_scale_raidp_single_sim(16, 1)
    # write s, net GB/node, recovery s -- all bitwise.
    assert ext_scale.run_task(("raidp", 16, 1)) == oracle


def test_ext_scale_full_scale_raidp_point_completes():
    """At ``--full`` the dataset grows 8x and the superchunks with it: the
    ingest fits the layout (8 x 32 MiB superchunks per disk did not)."""
    from repro.experiments.ext_scale import run_task

    write_s, per_node_gb, recovery_s = run_task(("raidp", 16, 1), full_scale=True)
    assert write_s > 0 and per_node_gb > 0 and recovery_s > 0


def test_ext_scale_512_node_write_reproduces_the_pinned_point():
    """Twice the sweep's largest size, held to the exact simulated result.

    The values were produced by the scan-every-port filling loop and the
    scan-every-superchunk placement (about 6 s of host time); heap
    filling and the writer index must land on the same floats, in about
    a second.  The work counters say why: a few dozen filling steps per
    solve where the scan loop spent rounds x ports.
    """
    from repro.experiments.ext_scale import BYTES_PER_NODE, _build

    num_nodes = 512
    dfs = _build("raidp", num_nodes, 1)
    write = dfsio_write(dfs, num_nodes * BYTES_PER_NODE)
    assert write.runtime == 0.7714890324906774
    assert dfs.switch.total_bytes / num_nodes / units.GB == 0.033562624
    assert dfs.switch.solves == 193
    assert dfs.switch.fill_steps == 21677  # 21710 when every solve filled from round 0


def test_ext_scale_hdfs3_128_node_write_reproduces_the_pinned_point():
    """A stock HDFS-3 point: one write burst of ~500 pipeline flows in a
    single component, where every finished block re-solves it.  Runtime,
    traffic, solves, deadline pushes and engine entries are what full
    re-solves produced; resuming each departure's solve from its log
    cut the filling steps from 63,730 to what is pinned here."""
    from repro.experiments.ext_scale import BYTES_PER_NODE, _build

    num_nodes = 128
    dfs = _build("hdfs3", num_nodes, 1)
    write = dfsio_write(dfs, num_nodes * BYTES_PER_NODE)
    switch = dfs.switch
    assert write.runtime.hex() == "0x1.07f235b0b5d25p+0"
    assert switch.total_bytes / num_nodes / units.GB == 0.067108864
    assert (switch.solves, switch.deadline_pushes, dfs.sim._seq) == (229, 1563, 14429)
    assert switch.fill_steps == 10833


def _table2_raidp_64mb_row(lock_mode):
    """table2_recovery.run_task(("raidp", lock_mode, 64 MiB, 0, 1)),
    spelled out to keep hold of the cluster and read its counters."""
    from repro.core.recovery import RecoveryManager, RecoveryOptions
    from repro.experiments.common import build_raidp, pick_scale

    dfs = build_raidp(pick_scale(False), seed=1)
    options = RecoveryOptions(lock_mode=lock_mode, chunk_size=64 * units.MiB, nic_index=0)
    report = RecoveryManager(dfs).recover(("n0", "n1"), options, reconstruct_only=True)
    switch = dfs.switch
    work = (switch.solves, switch.fill_steps, switch.deadline_pushes, dfs.sim._seq)
    return report.duration.hex(), work


@pytest.mark.parametrize(
    "lock_mode,seconds,engine_entries",
    [
        ("byte_range", "0x1.3ed1a65501d45p+7", 13063),
        ("superchunk", "0x1.8ac614d884d0ap+7", 10183),
    ],
)
def test_table2_raidp_64mb_rows_reproduce_the_pinned_points(
    lock_mode, seconds, engine_entries, monkeypatch
):
    """Two Table 2 rows held to the exact simulated result and work, on
    the per-chunk oracle (``tests.oracles.discrete_lane``).

    A 6 GB superchunk rebuilt from 14 mirrors + 1 Lstor in 64 MB chunks:
    a 15-spoke star on the receiver's NIC whose membership changes twice
    per chunk.  Seconds, solves, filling steps and deadline pushes are
    what the BFS + ``_solve`` path and the process-wrapped source reads
    produced.  Only the engine's entry count moved: a source read awaited
    as an event is one schedule entry where the process took four
    (bootstrap, grant, sleep, completion), and there are 14 x 96 = 1344
    of them -- 17095 - 3 * 1344 = 13063 and 14215 - 3 * 1344 = 10183.
    """
    discrete_lane(monkeypatch)
    assert _table2_raidp_64mb_row(lock_mode) == (
        seconds, (1426, 4306, 1440, engine_entries)
    )


@pytest.mark.parametrize(
    "lock_mode,seconds,work",
    [
        ("byte_range", "0x1.3d029fa292394p+7", (58, 2291, 305, 379)),
        ("superchunk", "0x1.8ac61b663d84bp+7", (44, 1194, 135, 321)),
    ],
)
def test_table2_raidp_64mb_fluid_rows_reproduce_the_pinned_points(lock_mode, seconds, work):
    """The same rows on the fluid lane, pinned the same way (seconds,
    solves, filling steps, deadline pushes, engine entries).  Each
    stream runs one chunk discretely, then one body: what is left is
    the first chunks, the first lock convoy's stage holds and releases,
    and one arrival and one departure per body."""
    assert _table2_raidp_64mb_row(lock_mode) == (seconds, work)


@pytest.mark.parametrize(
    "chunk_mib,nic_index,seconds",
    [
        (4, 0, "0x1.fa098a2611258p+10"),
        (4, 1, "0x1.a08600265f62ap+13"),
        (64, 0, "0x1.002daf1a6b927p+11"),
        (64, 1, "0x1.a147035c71584p+13"),
    ],
    ids=["4MB-10G", "4MB-1G", "64MB-10G", "64MB-1G"],
)
def test_table2_raid6_rows_are_pinned(chunk_mib, nic_index, seconds):
    """The four RAID-6 rows, one simulator each: gather and decode every
    survivor, then write both replacement disks."""
    from repro.experiments.table2_recovery import run_task

    key = ("raid6", chunk_mib * units.MiB, nic_index, "write")
    assert run_task(key).hex() == seconds


def test_ext_scale_raidp_network_beats_hdfs3():
    from repro.experiments.ext_scale import run_task

    _w, raidp_gb = run_task(("raidp", 64, 1))[:2]
    _w, hdfs_gb, rec = run_task(("hdfs3", 64, 1))
    assert rec is None
    # 1 remote copy (plus parity acks) vs 2 remote copies.
    assert raidp_gb < 0.7 * hdfs_gb
