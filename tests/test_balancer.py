"""Tests for the background superchunk/block balancer (§3.3)."""

import pytest

from repro import units
from repro.core.balancer import Balancer
from repro.core.cluster import RaidpCluster
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec


def cluster(num_nodes=8, per_disk=4, payload_mode="bytes"):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        superchunks_per_disk=per_disk,
        payload_mode=payload_mode,
    )


def skewed_cluster(payload_mode="bytes"):
    """Force all writes onto the superchunks of two disks by freezing
    everything else, then unfreeze: instant hotspot."""
    dfs = cluster(payload_mode=payload_mode)
    hot = {"n0", "n1"}
    frozen = [
        sc_id
        for sc_id, sc in dfs.layout.superchunks.items()
        if not (sc.disks & hot)
    ]
    for sc_id in frozen:
        dfs.map.freeze(sc_id)

    def writes():
        for index, client in enumerate(dfs.clients[:4]):
            yield from client.write_file(f"/skew/f{index}", 3 * units.MiB)

    dfs.sim.run_process(writes())
    for sc_id in frozen:
        dfs.map.unfreeze(sc_id)
    return dfs


def test_skew_setup_creates_imbalance():
    dfs = skewed_cluster(payload_mode="tokens")
    balancer = Balancer(dfs)
    assert balancer.imbalance() > 1.0
    loads = balancer.disk_loads()
    assert loads["n0"] > min(loads.values())


def test_balancer_reduces_imbalance():
    dfs = skewed_cluster(payload_mode="tokens")
    balancer = Balancer(dfs, threshold=0.5)
    report = balancer.balance(max_moves=64)
    assert report.moves
    assert report.imbalance_after < report.imbalance_before
    assert report.imbalance_after <= 0.5 or len(report.moves) == 64


def test_balancer_preserves_all_invariants():
    dfs = skewed_cluster(payload_mode="bytes")
    originals = {
        loc.block.name: dfs.datanode_by_name(loc.datanodes[0]).content_of(
            loc.block.name
        )
        for loc in dfs.namenode.all_blocks()
    }
    balancer = Balancer(dfs, threshold=0.5)
    report = balancer.balance(max_moves=64)
    assert report.moves
    dfs.layout.verify()
    dfs.verify_mirrors()
    dfs.verify_parity()
    # Content survives the migration bit-for-bit.
    for loc in dfs.namenode.all_blocks():
        for home in loc.datanodes:
            assert dfs.datanode_by_name(home).content_of(loc.block.name) == originals[
                loc.block.name
            ]


def test_balancer_noop_on_balanced_cluster():
    dfs = cluster(payload_mode="tokens")

    def writes():
        for index, client in enumerate(dfs.clients):
            yield from client.write_file(f"/even/f{index}", 2 * units.MiB)

    dfs.sim.run_process(writes())
    balancer = Balancer(dfs, threshold=0.6)
    report = balancer.balance()
    assert report.imbalance_before <= 0.6
    assert report.moves == []


def test_balancer_respects_frozen_superchunks():
    dfs = skewed_cluster(payload_mode="tokens")
    # Freeze every superchunk (a cluster-wide recovery storm): the
    # balancer must do nothing rather than move data into recovering
    # superchunks.
    for sc_id in dfs.layout.superchunks:
        dfs.map.freeze(sc_id)
    balancer = Balancer(dfs, threshold=0.1)
    report = balancer.balance()
    assert report.moves == []


def test_moves_update_namenode_metadata():
    dfs = skewed_cluster(payload_mode="tokens")
    balancer = Balancer(dfs, threshold=0.5)
    report = balancer.balance(max_moves=8)
    moved = {name for name, _f, _t in report.moves}
    for loc in dfs.namenode.all_blocks():
        if loc.block.name in moved:
            sc = dfs.layout.superchunk(loc.sc_id)
            assert set(loc.datanodes) == set(sc.disks)
            assert dfs.map.blocks_in(loc.sc_id).get(loc.slot) == loc.block.name
