"""The unoptimized write path's packet train against the packet loop.

Every unoptimized RAIDP replica write runs its packets as one packet
train (``core/node.py``: ``RaidpDataNode._stream_block`` on
``Switch.train``); ``tests/oracles.py`` keeps the per-packet loop
(``packet_loop``).  These pin the disk accounting and the journal of
trains that share a disk, what a train does when its disk or its Lstor
dies, and the cheap Fig. 8 rows; the +journal rows (the oracle's
~1.5 s each) run under ``make shapes``.
"""

import pytest

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig, RaidpDataNode
from repro.errors import DiskFailedError
from repro.experiments import fig8_write
from repro.experiments.common import build_raidp, pick_scale
from repro.hdfs.block import Block, BlockLocations
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from tests.oracles import assert_rows_agree, packet_loop, packet_train_differential

BLOCK = 4 * units.MiB
PACKET = 64 * units.KiB


def unoptimized_cluster(**raidp_kwargs):
    return RaidpCluster(
        spec=ClusterSpec(num_nodes=5),
        config=DfsConfig(block_size=BLOCK, packet_size=PACKET, replication=2),
        raidp=RaidpConfig(optimized=False, **raidp_kwargs),
        superchunk_size=4 * BLOCK,
        payload_mode="tokens",
    )


def trains_on_one_disk(count, stagger, sample):
    """``count`` replica writes onto one DataNode, each into a different
    superchunk (so the head ping-pongs), started ``stagger`` seconds
    apart; ``sample(dfs, datanode)`` runs every millisecond meanwhile.
    Returns (the cluster, that DataNode)."""
    dfs = unoptimized_cluster()
    datanode = dfs.datanodes[0]
    writes = []
    for index, sc_id in enumerate(dfs.layout.superchunks_of(datanode.name)[:count]):
        block = Block(block_id=100 + index, path="/t", index=index, size=BLOCK)
        partner = dfs.layout.superchunk(sc_id).mirror_of(datanode.name)
        locations = BlockLocations(
            block=block, datanodes=[datanode.name, partner], sc_id=sc_id, slot=0
        )
        writes.append(locations)

    def write(locations, delay):
        yield dfs.sim.timeout(delay)
        payload = dfs.factory.make(locations.block.name, 1, BLOCK)
        yield from datanode.write_block(locations, payload)

    def body():
        procs = [
            dfs.sim.process(write(locations, index * stagger))
            for index, locations in enumerate(writes)
        ]
        while not all(proc.triggered for proc in procs):
            sample(dfs, datanode)
            yield dfs.sim.timeout(units.MSEC)

    dfs.sim.run_process(body())
    return dfs, datanode


@pytest.mark.parametrize("count, stagger", [(2, 0.0), (3, 0.0), (3, 0.02)])
def test_trains_sharing_a_disk_account_like_the_packet_loop(monkeypatch, count, stagger):
    """Two or three trains on one disk: the same writes, syncs and bytes
    as the packet loop, seeks and busy seconds within 0.5%, and a clean
    disk at the end."""
    train, train_dn = trains_on_one_disk(count, stagger, lambda dfs, dn: None)
    with monkeypatch.context() as patch:
        packet_loop(patch)
        loop, loop_dn = trains_on_one_disk(count, stagger, lambda dfs, dn: None)
    got, want = train_dn.disk.stats, loop_dn.disk.stats
    assert (got.writes, got.syncs, got.bytes_written) == (
        want.writes, want.syncs, want.bytes_written,
    )
    assert got.writes == count * BLOCK // PACKET
    assert got.seeks == pytest.approx(want.seeks, rel=0.005)
    assert got.busy_seconds == pytest.approx(want.busy_seconds, rel=0.005)
    assert train.sim.now == pytest.approx(loop.sim.now, rel=0.005)
    assert train_dn.disk.queue_gauge.current == 0
    assert train_dn.disk.audit_state() == []
    assert train_dn.disk._runs == {} and len(train.switch._flows) == 0


def test_an_open_train_holds_one_packet_record():
    """The journal counts one packet-sized record per open train, never
    overflows, and drains when the trains close."""
    seen = []

    def sample(dfs, datanode):
        journal = datanode.lstors.primary.journal
        trains = len(datanode.disk._runs)
        seen.append(trains)
        assert journal.outstanding <= trains
        assert journal.used_bytes <= trains * PACKET

    dfs, datanode = trains_on_one_disk(3, 0.02, sample)
    journal = datanode.lstors.primary.journal
    assert max(seen) == 3
    assert journal.overflows == 0 and journal.high_water_bytes == 3 * PACKET
    assert journal.total_appends == journal.total_clears == 3
    assert dfs.journals_empty()


def test_rewrite_variant_requires_the_optimized_path():
    with pytest.raises(ValueError):
        RaidpConfig(optimized=False, update_oriented=True)


# ----------------------------------------------------------------------
# Faults under a train.
# ----------------------------------------------------------------------
def one_block_write(fault_at, fault, recorded):
    """One client writes one block; ``fault(dfs, locations)`` strikes at
    ``fault_at``.  Records every ``note_pipeline_failure`` and when each
    replica write raised or ended; returns (the cluster, the block's
    locations)."""
    dfs = unoptimized_cluster()
    client = dfs.client(0)
    note = dfs.namenode.note_pipeline_failure

    def noting(locations, failed):
        recorded.append(("pipeline", list(failed)))
        note(locations, failed)

    dfs.namenode.note_pipeline_failure = noting
    stream = RaidpDataNode._stream_block

    def timed(self, locations, payload, inbound):
        try:
            yield from stream(self, locations, payload, inbound)
        except DiskFailedError:
            recorded.append(("raised", self.name, self.sim.now))
            raise
        recorded.append(("ended", self.name, self.sim.now))

    def body():
        dfs.namenode.create_file("/f")
        locations = dfs.namenode.allocate_block("/f", BLOCK, writer=client.node.name)
        dfs.sim.timeout(fault_at).add_callback(lambda _ev: fault(dfs, locations))
        yield from client.write_block(locations)
        return locations

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RaidpDataNode, "_stream_block", timed)
        locations = dfs.sim.run_process(body())
    return dfs, locations


def fail_mirror_disk(dfs, locations):
    dfs.namenode.datanode(locations.datanodes[1]).disk.fail()


def test_disk_failing_mid_train_cuts_it_at_the_fault_instant(monkeypatch):
    """The mirror's disk dies mid-train: its write raises at the fault
    instant, keeps the packets it wrote, and the pipeline recovers as
    under the packet loop -- same survivor, same failure note."""
    fault_at = 0.1
    recorded, oracle = [], []
    dfs, locations = one_block_write(fault_at, fail_mirror_disk, recorded)
    with monkeypatch.context() as patch:
        packet_loop(patch)
        loop_dfs, loop_locations = one_block_write(fault_at, fail_mirror_disk, oracle)
    (_, mirror, raised_at), _ended, pipeline = recorded
    assert raised_at == fault_at
    assert pipeline == [o for o in oracle if o[0] == "pipeline"][0]
    assert locations.datanodes == loop_locations.datanodes == [dfs.datanodes[0].name]
    written = dfs.namenode.datanode(mirror).disk.stats.bytes_written
    assert 0 < written < BLOCK
    assert written == pytest.approx(
        loop_dfs.namenode.datanode(mirror).disk.stats.bytes_written, abs=2 * PACKET
    )


def test_lstor_failing_mid_train_keeps_its_overheads(monkeypatch):
    """Not modelled (DESIGN.md §4c): the train is not re-solved when its
    Lstor dies -- it keeps journaling and syncing every packet in time,
    where the packet loop stops at the next packet."""

    def fail_local_lstor(dfs, locations):
        dfs.namenode.datanode(locations.datanodes[0]).lstors.primary.fail()

    def never(dfs, locations):
        pass

    def local_end(fault):
        recorded = []
        dfs, locations = one_block_write(0.1, fault, recorded)
        (end,) = [at for what, name, at in recorded if name == locations.datanodes[0]]
        return end

    faulted, healthy = local_end(fail_local_lstor), local_end(never)
    with monkeypatch.context() as patch:
        packet_loop(patch)
        loop = local_end(fail_local_lstor)
        assert loop < local_end(never)
    assert faulted == healthy
    assert loop < faulted


# ----------------------------------------------------------------------
# The streamed write's parity, in real bytes.
# ----------------------------------------------------------------------
def test_streamed_writes_keep_the_bytes_plane_parity():
    """A train absorbs its block into the Lstor itself: after writes,
    a delete and rewrites of real bytes, every parity slot equals the
    XOR of its disk's blocks and every block reads back as minted."""
    block = 256 * units.KiB
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=5),
        config=DfsConfig(block_size=block, packet_size=PACKET, replication=2),
        raidp=RaidpConfig(optimized=False),
        superchunk_size=4 * block,
        payload_mode="bytes",
    )
    client = dfs.client(0)

    def phase(*bodies):
        for body in bodies:
            dfs.sim.run_process(body)
        dfs.verify_parity()
        for path in dfs.namenode.list_files():
            for blk in dfs.namenode.file_blocks(path):
                locations = dfs.namenode.locate_block(blk.block_id)
                payload = dfs.sim.run_process(client.read_block(locations))
                assert payload == dfs.factory.make(blk.name, locations.version, blk.size)

    phase(*(client.write_file(f"/f{i}", 3 * block) for i in range(3)))
    phase(client.delete_file("/f1"))
    phase(client.rewrite_file("/f0"), client.write_file("/f3", 2 * block))
    phase(client.rewrite_file("/f0"), client.rewrite_file("/f3"))


# ----------------------------------------------------------------------
# Fig. 8's cheap unoptimized rows.
# ----------------------------------------------------------------------
def test_journal_less_fig8_rows_agree_with_the_packet_loop(monkeypatch):
    """Fig. 8's unoptimized only-superchunks and +lstor cells at seed 1:
    within 0.5% of the packet loop, the same network bytes."""
    scale = pick_scale(False)
    builders = {
        label: (lambda kwargs=fig8_write._BAR_KWARGS[label]: build_raidp(scale, 1, **kwargs))
        for label, _kwargs, _paper in fig8_write.UNOPTIMIZED_BARS[:2]
    }
    train, oracle = packet_train_differential(
        builders, scale.unoptimized_dataset, monkeypatch
    )
    assert_rows_agree(
        {key: value[0] for key, value in train.items()},
        {key: value[0] for key, value in oracle.items()},
        rel=0.005,
    )
    assert {key: value[1] for key, value in train.items()} == {
        key: value[1] for key, value in oracle.items()
    }
