"""A fast chaos-soak smoke test: same-seed determinism and survival.

The full soak (``make chaos`` / ``python -m repro.tools.chaos``) runs a
heavier randomized schedule; this keeps a single reduced configuration in
the tier-1 suite so regressions in the failure lifecycle surface in CI.
"""

import hashlib
import json
import tracemalloc
import weakref
import zlib
from collections import Counter

import numpy as np
import pytest

from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpDataNode
from repro.faults import chaos_schedule
from repro.hdfs.namenode import healthy_datanode
from repro.storage import payload as payload_module
from repro.storage.payload import BytesPayload, ContentFactory
from repro.tools import chaos
from repro.tools.chaos import (
    BLOCK_SIZE,
    DEFAULT_SEED,
    FAULT_WINDOW,
    RESTART_DELAY,
    build_cluster,
    run_chaos,
    run_repeated,
)

SEED = 20260806


@pytest.fixture(scope="module")
def soak():
    schedule = chaos_schedule(
        build_cluster(SEED), SEED, window=FAULT_WINDOW,
        nic_degrades=0, lstor_losses=0, restart_delay=RESTART_DELAY,
    )
    return run_repeated(SEED, runs=2, schedule=schedule)


def test_chaos_soak_survives(soak):
    assert soak.ok, "\n".join(soak.problems)


def test_chaos_soak_injected_and_recovered(soak):
    fp = soak.fingerprint
    # The schedule landed: a sharing-pair double, a single, and a node
    # crash/restart cycle, all during traffic.
    kinds = [record[1] for record in fp["injections"]]
    assert kinds.count("disk_fail") == 3
    assert kinds.count("node_crash") == 1
    assert kinds.count("node_restart") == 1
    assert fp["reports"], "no recovery ran"
    assert fp["rejoined"], "the restarted node never rejoined"
    assert fp["recovery_errors"] == []
    assert fp["blocks"], "nothing was verified"
    assert fp["under_replicated"] == 0


def test_soak_fingerprint_is_pinned(soak):
    """The module soak's whole history, as canonical JSON, hashes to one
    value.  A change that moves the soak's schedule or any recovery in
    it must re-pin this on purpose."""
    text = json.dumps(
        soak.fingerprint, sort_keys=True, separators=(",", ":"), default=list
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9455f68cdd721626c59e9d264c8f048b397b06622281d1033cfbe0cf03875b6a"
    )


def test_chaos_timeline_orders_fault_detect_recover(soak):
    """Every detection row shows fault <= detection <= recovery-complete."""
    timeline = soak.fingerprint["timeline"]
    assert timeline, "no timeline rows despite detections"
    assert len(timeline) == len(soak.fingerprint["detected"])
    for row in timeline:
        assert row["victims"]
        assert row["injected_at"] is not None
        assert row["recovered_at"] is not None
        assert row["injected_at"] <= row["detected_at"] <= row["recovered_at"]
        assert row["detect_latency"] == pytest.approx(
            row["detected_at"] - row["injected_at"]
        )
        assert row["recover_latency"] == pytest.approx(
            row["recovered_at"] - row["injected_at"]
        )
    rendered = soak.render_timeline()
    assert "victims" in rendered and "rec lat" in rendered


def test_gate_seed_passes_the_final_audit(monkeypatch):
    """Bench seed 701 is one the always-on auditor used to fail (a
    refused disk I/O counted as a completed one), and the soak's content
    check is the final audit's: parity and mirror equality each run
    exactly once per soak, there."""
    calls = {"verify_parity": 0, "verify_mirrors": 0}
    for name in calls:
        def counted(self, _name=name, _real=getattr(RaidpCluster, name)):
            calls[_name] += 1
            return _real(self)

        monkeypatch.setattr(RaidpCluster, name, counted)
    result = run_chaos(seed=701)
    assert result.ok, "\n".join(result.problems)
    assert calls == {"verify_parity": 1, "verify_mirrors": 1}


def test_a_remirror_copies_the_version_its_locations_name(monkeypatch):
    """Seed 703: ``blk_5`` is down to one replica (``n7``) when a rewrite
    to version 11 starts, and the remirror of its superchunk copies
    ``n7`` to ``n11`` while that write is still landing.  Every block a
    recovery installs must be the bytes of the version its locations
    name, and no live journal may keep a record at the end: copying
    ``n7``'s version-10 bytes left ``n11`` serving them under a
    version-11 label and ``n7`` waiting for an ack ``n11`` never sends."""
    installs, built = [], []
    real_install = RaidpDataNode.install_recovered_block
    real_build = chaos.build_cluster

    def install(self, locations, payload):
        block = locations.block
        expected = self.factory.make(block.name, locations.version, block.size)
        installs.append((block.name, locations.version, payload == expected))
        real_install(self, locations, payload)

    def build(seed):
        built.append(real_build(seed))
        return built[-1]

    monkeypatch.setattr(RaidpDataNode, "install_recovered_block", install)
    monkeypatch.setattr(chaos, "build_cluster", build)
    result = run_chaos(seed=703)
    assert result.ok, "\n".join(result.problems)
    assert ("blk_5", 11, True) in installs
    assert [entry for entry in installs if not entry[2]] == []
    assert [
        (datanode.name, record.block_name, record.state)
        for datanode in built[0].datanodes
        if healthy_datanode(datanode) and not datanode.lstors.primary.failed
        for record in datanode.lstors.primary.journal.replay_candidates()
    ] == []
    text = json.dumps(
        result.fingerprint, sort_keys=True, separators=(",", ":"), default=list
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "87633314f8a975c1eff8ae8860fe98d15db5208b7c4b6c51230f99eafa53aa2d"
    )


def test_soak_byte_work_is_counted(monkeypatch):
    """Exact byte-plane work of one soak: it repeats on any host.

    The commit that stored a parity delta in every journal record, XORed
    against fresh zero buffers and minted each expected block once per
    verifier made 1,439 allocating XORs here (551,813,120 bytes XORed in
    all), 438 mints and 198 zero payloads.  Now a write's delta is applied
    once, where the Lstor absorbs it, XOR with a known zero is the other
    operand, and the post-mortem mints each block once.  The single Lstor
    folds a write's old and new content into its parity with two in-place
    XORs instead of allocating ``old ^ new`` first (584/666 -> 57/1,193,
    the same bytes XORed).  The last 57 allocating XORs were the parity
    check's, now folded in place (57/1,193 -> 0/1,250); its 32 copies of
    live parity accumulators into snapshots are gone with copy-on-write
    Lstor snapshots (32 payload copies -> 0).  Mints are deferred and an
    Lstor keeps each shard's last ``new`` pending, which the shard's next
    write cancels with no XOR: 1,250 in-place XORs of 327,680,000 bytes
    become 171 of 44,826,624, and 102 of the 390 mints are ever drawn.
    The final audit's parity check cancels each stored block against its
    pending term instead of folding, and the verifiers' ``==`` and CRC
    read through temporaries: 171/44,826,624 -> 28/7,340,032, and 102
    draws -> 57 (the post-mortem's CRCs, none cached)."""
    calls = Counter()
    real_xor, real_eq = np.bitwise_xor, BytesPayload.__eq__
    real_make, real_zeros = ContentFactory.make, BytesPayload.zeros.__func__
    real_init = BytesPayload.__init__
    real_draw = payload_module._draw
    real_expected = chaos._expected
    live_expected = set()

    def xor(a, b, out=None):
        calls["in-place" if out is not None else "allocating"] += 1
        calls["bytes"] += a.nbytes
        return real_xor(a, b, out=out)

    def make(self, name, version, length):
        calls["mints"] += 1
        return real_make(self, name, version, length)

    def draw(seed, length):
        calls["mints materialized"] += 1
        return real_draw(seed, length)

    def zeros(cls, length):
        calls["zero payloads"] += 1
        return real_zeros(cls, length)

    def init(self, data):
        real_init(self, data)
        if isinstance(data, np.ndarray) and not np.shares_memory(self.data, data):
            calls["payload copies"] += 1

    def expected(dfs, locations):
        payload = real_expected(dfs, locations)
        calls["expected"] += 1
        live_expected.add(id(payload))
        weakref.finalize(payload, live_expected.discard, id(payload))
        calls["most expected alive"] = max(
            calls["most expected alive"], len(live_expected)
        )
        return payload

    def eq(self, other):
        calls["checked against expected"] += id(other) in live_expected
        return real_eq(self, other)

    monkeypatch.setattr(np, "bitwise_xor", xor)
    monkeypatch.setattr(ContentFactory, "make", make)
    monkeypatch.setattr(payload_module, "_draw", draw)
    monkeypatch.setattr(BytesPayload, "zeros", classmethod(zeros))
    monkeypatch.setattr(BytesPayload, "__init__", init)
    monkeypatch.setattr(BytesPayload, "__eq__", eq)
    monkeypatch.setattr(chaos, "_expected", expected)
    result = run_chaos(seed=101)
    assert result.ok, "\n".join(result.problems)
    blocks = result.fingerprint["blocks"]
    assert calls["allocating"] == 0
    assert calls["in-place"] <= 50 and calls["bytes"] <= 7_340_032
    assert calls["mints"] <= 390 and calls["zero payloads"] < 198
    assert calls["mints materialized"] <= 60
    assert (
        calls["allocating"], calls["in-place"], calls["bytes"],
        calls["mints"], calls["mints materialized"],
        calls["zero payloads"], calls["payload copies"],
    ) == (0, 28, 7_340_032, 390, 57, 1, 0)
    # The post-mortem mints one expected payload per verified block and
    # holds one at a time; still one comparison per read and one per
    # listed replica against it.
    assert calls["expected"] == len(blocks) == 48
    assert calls["most expected alive"] == 1 and not live_expected
    assert calls["checked against expected"] == len(blocks) + sum(
        len(datanodes) for _, _, datanodes, _ in blocks
    )
    # The counting wrappers observed the pinned run, not another one.
    assert [crc for *_, crc in blocks[:2]] == [0x094AC4A6, 0x5E0FED33]


def _observed(dfs):
    """What a verifier must leave as it found it: every Lstor's pending
    terms, accumulator buffers and snapshots (by identity, the buffers
    also by CRC), the folded preallocation slots, and which stored
    mints are drawn."""
    lstors = [lstor for dn in dfs.datanodes for lstor in dn.lstors.lstors]
    return (
        [{slot: {s: id(t) for s, t in p.items()} for slot, p in l._pending.items()}
         for l in lstors],
        [{slot: (id(a), zlib.crc32(a)) for slot, a in l._parity_accum.items()}
         for l in lstors],
        [{slot: id(p) for slot, p in l._parity.items()} for l in lstors],
        [sorted(dn.lstors._folded) for dn in dfs.datanodes],
        [{name: p._data is None for name, p in dn._contents.items() if p._mint}
         for dn in dfs.datanodes],
    )


def test_verifiers_leave_what_they_observe(monkeypatch):
    """The final audit's parity and mirror checks and the post-mortem
    change no Lstor and make no stored mint; the two checks draw no
    bytes at all on this soak (the post-mortem's CRCs draw into
    temporaries)."""
    draws = [0]
    real_draw = payload_module._draw

    def draw(seed, length):
        draws[0] += 1
        return real_draw(seed, length)

    seen = {}

    def observing(name, real):
        def verifier(self):
            before, drawn = _observed(self), draws[0]
            real(self)
            seen[name] = (_observed(self) == before, draws[0] - drawn)
            assert any(before[0]) and any(before[1]) and any(before[4])

        return verifier

    for name in ("verify_parity", "verify_mirrors"):
        monkeypatch.setattr(
            RaidpCluster, name, observing(name, getattr(RaidpCluster, name))
        )
    real_post_mortem = chaos._verify_blocks

    def post_mortem(dfs, problems, blocks_fp):
        before = _observed(dfs)
        yield from real_post_mortem(dfs, problems, blocks_fp)
        seen["post-mortem"] = (_observed(dfs) == before, None)

    monkeypatch.setattr(payload_module, "_draw", draw)
    monkeypatch.setattr(chaos, "_verify_blocks", post_mortem)
    result = run_chaos(seed=101)
    assert result.ok, "\n".join(result.problems)
    assert seen == {
        "verify_parity": (True, 0),
        "verify_mirrors": (True, 0),
        "post-mortem": (True, None),
    }


def test_soak_memory_peak_is_bounded():
    """tracemalloc's peak over one soak, a deterministic stand-in for
    host RSS: 4.96 MiB.  It was 23.47 MiB while the final audit folded
    every parity slot and the verifiers cached every mint they read."""
    tracemalloc.start()
    try:
        result = run_chaos(seed=101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok, "\n".join(result.problems)
    assert peak < 8 * 2**20


def test_verifiers_catch_one_diverged_replica():
    """Checking one block at a time shares no verdict: the pass still
    compares every replica and every read, and a block that no file
    reaches still gets its replica check."""
    dfs = build_cluster(5)
    dfs.sim.run_process(dfs.clients[0].write_file("/f", 2 * BLOCK_SIZE))
    problems, blocks_fp = [], []
    dfs.sim.run_process(chaos._verify_blocks(dfs, problems, blocks_fp))
    assert problems == [] and len(blocks_fp) == 2
    victim = dfs.namenode.all_blocks()[1]
    wrong = dfs.factory.make("not this block", 1, BLOCK_SIZE)
    for name in victim.datanodes:
        dfs.datanode_by_name(name).store_content(victim.block.name, wrong, victim.version)
    diverged = [
        f"{victim.block.name}: replica {victim.datanodes[0]} diverged",
        f"{victim.block.name}: replica {victim.datanodes[1]} diverged",
    ]
    dfs.sim.run_process(chaos._verify_blocks(dfs, problems, blocks_fp))
    assert problems == diverged + [f"{victim.block.name} (/f) read back wrong content"]
    problems.clear()
    del dfs.namenode._files["/f"]  # the blocks stay in the block map
    dfs.sim.run_process(chaos._verify_blocks(dfs, problems, blocks_fp))
    assert problems == diverged and len(blocks_fp) == 4


def test_chaos_cli_rejects_unknown_args():
    from repro.tools.chaos import main

    with pytest.raises(SystemExit):
        main(["--no-such-flag"])


def test_default_seed_is_stable():
    # The documented default: anyone running `make chaos` gets this plan.
    assert DEFAULT_SEED == 0xC4A05
