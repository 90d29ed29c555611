"""Tests for in-place updates and trace replay (paper §8 extensions)."""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.errors import DfsError
from repro.hdfs.config import ACK_SIZE, DfsConfig
from repro.hdfs.filesystem import HdfsCluster
from repro.sim.cluster import ClusterSpec
from repro.workloads.traces import (
    TraceOp,
    generate_ycsb_trace,
    replay_trace,
    update_amplification,
    zipf_weights,
)


def raidp_cluster(payload_mode="bytes", num_nodes=5):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=num_nodes),
        config=DfsConfig(block_size=units.MiB, replication=2),
        superchunk_size=4 * units.MiB,
        payload_mode=payload_mode,
    )


# ----------------------------------------------------------------------
# In-place updates.
# ----------------------------------------------------------------------
def test_update_range_patches_content_bit_exact():
    dfs = raidp_cluster()
    client = dfs.clients[0]

    def body():
        yield from client.write_file("/db", 3 * units.MiB)
        yield from client.update_file_range("/db", 512 * units.KiB, 64 * units.KiB)

    dfs.sim.run_process(body())
    dfs.verify_mirrors()
    dfs.verify_parity()
    # The updated block carries the spliced patch; its neighbors don't.
    blocks = dfs.namenode.file_blocks("/db")
    first = dfs.namenode.locate_block(blocks[0].block_id)
    assert first.version == 2
    second = dfs.namenode.locate_block(blocks[1].block_id)
    assert second.version == 1


def test_update_spanning_blocks_touches_both():
    dfs = raidp_cluster()
    client = dfs.clients[0]

    def body():
        yield from client.write_file("/db", 2 * units.MiB)
        # Straddle the block boundary at 1 MiB.
        yield from client.update_file_range(
            "/db", units.MiB - 32 * units.KiB, 64 * units.KiB
        )

    dfs.sim.run_process(body())
    dfs.verify_parity()
    for block in dfs.namenode.file_blocks("/db"):
        assert dfs.namenode.locate_block(block.block_id).version == 2


def test_update_moves_no_block_data_over_network():
    dfs = raidp_cluster(payload_mode="tokens")
    client = dfs.clients[0]
    dfs.sim.run_process(client.write_file("/db", 2 * units.MiB))
    before = dfs.total_network_bytes()
    dfs.sim.run_process(
        client.update_file_range("/db", 0, 64 * units.KiB)
    )
    moved = dfs.total_network_bytes() - before
    # Only the journal acknowledgments cross the wire.
    assert moved <= 4 * ACK_SIZE


def test_update_journals_and_drains():
    dfs = raidp_cluster(payload_mode="tokens")
    client = dfs.clients[0]

    def body():
        yield from client.write_file("/db", units.MiB)
        yield from client.update_file_range("/db", 0, 64 * units.KiB)
        yield from client.update_file_range("/db", 128 * units.KiB, 64 * units.KiB)

    dfs.sim.run_process(body())
    assert dfs.journals_empty()
    dfs.verify_parity()


def test_update_bounds_checked():
    dfs = raidp_cluster(payload_mode="tokens")
    client = dfs.clients[0]
    dfs.sim.run_process(client.write_file("/db", units.MiB))
    with pytest.raises(DfsError):
        dfs.sim.run_process(client.update_file_range("/db", 0, 2 * units.MiB))
    with pytest.raises(DfsError):
        dfs.sim.run_process(client.update_file_range("/db", 0, 0))


def test_stock_hdfs_rejects_in_place_updates():
    dfs = HdfsCluster(
        spec=ClusterSpec(num_nodes=4),
        config=DfsConfig(block_size=units.MiB, replication=2),
        payload_mode="tokens",
    )
    client = dfs.clients[0]
    dfs.sim.run_process(client.write_file("/db", units.MiB))
    with pytest.raises(DfsError, match="append-only"):
        dfs.sim.run_process(client.update_file_range("/db", 0, 1024))


def test_update_is_cheaper_than_rewrite():
    def run(mode):
        dfs = raidp_cluster(payload_mode="tokens")
        client = dfs.clients[0]
        dfs.sim.run_process(client.write_file("/db", 4 * units.MiB))
        start = dfs.sim.now
        if mode == "in_place":
            dfs.sim.run_process(
                client.update_file_range("/db", 0, 64 * units.KiB)
            )
        else:
            dfs.sim.run_process(client.rewrite_file("/db"))
        return dfs.sim.now - start

    assert run("in_place") < run("rewrite") / 5


# ----------------------------------------------------------------------
# Traces.
# ----------------------------------------------------------------------
def test_zipf_weights_sum_and_skew():
    weights = zipf_weights(10)
    assert sum(weights) == pytest.approx(1.0)
    assert weights[0] > weights[-1] * 5


def test_trace_op_validation():
    with pytest.raises(ValueError):
        TraceOp("append", "/x")


def test_generate_ycsb_trace_shape():
    trace = generate_ycsb_trace(num_records=10, operations=50, seed=1)
    writes = [op for op in trace if op.kind == "write"]
    others = [op for op in trace if op.kind != "write"]
    assert len(writes) == 10
    assert len(others) == 50
    # Determinism.
    assert trace == generate_ycsb_trace(num_records=10, operations=50, seed=1)


def test_update_amplification_arithmetic():
    trace = [
        TraceOp("write", "/r", 0, units.MiB),
        TraceOp("update", "/r", 0, 64 * units.KiB),
        TraceOp("update", "/r", 0, 64 * units.KiB),
    ]
    assert update_amplification(trace) == pytest.approx(units.MiB / (64 * units.KiB))
    with pytest.raises(DfsError):
        update_amplification([TraceOp("write", "/r", 0, 1)])


def test_replay_in_place_beats_rewrite():
    trace = generate_ycsb_trace(
        num_records=6,
        record_size=2 * units.MiB,
        operations=30,
        update_fraction=0.7,
        seed=5,
    )
    results = {}
    for mode in ("in_place", "rewrite"):
        dfs = raidp_cluster(payload_mode="tokens", num_nodes=6)
        results[mode] = replay_trace(dfs, trace, mode=mode)
        dfs.verify_parity()
    assert results["in_place"].runtime < results["rewrite"].runtime
    assert (
        results["in_place"].disk_bytes_written
        < results["rewrite"].disk_bytes_written
    )


def test_replay_rejects_unknown_mode():
    dfs = raidp_cluster(payload_mode="tokens")
    with pytest.raises(ValueError):
        replay_trace(dfs, [], mode="teleport")
