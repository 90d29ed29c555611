"""A fast chaos-soak smoke test: same-seed determinism and survival.

The full soak (``make chaos`` / ``python -m repro.tools.chaos``) runs a
heavier randomized schedule; this keeps a single reduced configuration in
the tier-1 suite so regressions in the failure lifecycle surface in CI.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.cluster import RaidpCluster
from repro.faults import chaos_schedule
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


def test_soak_byte_work_is_counted(monkeypatch):
    """Exact byte-plane work of one soak: it repeats on any host.

    The commit that stored a parity delta in every journal record, XORed
    against fresh zero buffers and minted each expected block once per
    verifier made 1,439 allocating XORs here (551,813,120 bytes XORed in
    all), 438 mints and 198 zero payloads.  Now a write's delta is applied
    once, where the Lstor absorbs it, XOR with a known zero is the other
    operand, and both verifiers compare against one minted object.  The
    single Lstor folds a write's old and new content into its parity with
    two in-place XORs instead of allocating ``old ^ new`` first: 527
    allocating XORs became 527 more in-place ones (584/666 -> 57/1,193),
    the same bytes XORed."""
    calls = Counter()
    real_xor, real_eq = np.bitwise_xor, BytesPayload.__eq__
    real_make, real_zeros = ContentFactory.make, BytesPayload.zeros.__func__
    real_expected = chaos._expected_payloads
    expected_ids = set()

    def xor(a, b, out=None):
        calls["in-place" if out is not None else "allocating"] += 1
        calls["bytes"] += a.nbytes
        return real_xor(a, b, out=out)

    def make(self, name, version, length):
        calls["mints"] += 1
        return real_make(self, name, version, length)

    def zeros(cls, length):
        calls["zero payloads"] += 1
        return real_zeros(cls, length)

    def expected_payloads(dfs):
        expected = real_expected(dfs)
        expected_ids.update(id(payload) for payload in expected.values())
        return expected

    def eq(self, other):
        calls["checked against expected"] += id(other) in expected_ids
        return real_eq(self, other)

    monkeypatch.setattr(np, "bitwise_xor", xor)
    monkeypatch.setattr(ContentFactory, "make", make)
    monkeypatch.setattr(BytesPayload, "zeros", classmethod(zeros))
    monkeypatch.setattr(BytesPayload, "__eq__", eq)
    monkeypatch.setattr(chaos, "_expected_payloads", expected_payloads)
    result = run_chaos(seed=101)
    assert result.ok, "\n".join(result.problems)
    blocks = result.fingerprint["blocks"]
    assert calls["allocating"] <= 628
    assert calls["bytes"] <= 339_214_336
    assert calls["mints"] <= 390 and calls["zero payloads"] < 198
    assert (
        calls["allocating"], calls["in-place"], calls["bytes"],
        calls["mints"], calls["zero payloads"],
    ) == (57, 1_193, 327_680_000, 390, 1)
    # One expected payload per block, and still one comparison per read
    # and one per listed replica against it.
    assert len(expected_ids) == len(blocks) == 48
    assert calls["checked against expected"] == len(blocks) + sum(
        len(datanodes) for _, _, datanodes, _ in blocks
    )
    # The counting wrappers observed the pinned run, not another one.
    assert [crc for *_, crc in blocks[:2]] == [0x094AC4A6, 0x5E0FED33]


def test_verifiers_catch_one_diverged_replica():
    """Sharing one expected payload between the verifiers shares no
    verdict: each still compares every replica and every read."""
    dfs = build_cluster(5)
    dfs.sim.run_process(dfs.clients[0].write_file("/f", 2 * BLOCK_SIZE))
    expected = chaos._expected_payloads(dfs)
    problems, blocks_fp = [], []
    chaos._verify_replicas(dfs, expected, problems)
    dfs.sim.run_process(chaos._verify_reads(dfs, expected, problems, blocks_fp))
    assert problems == [] and len(blocks_fp) == len(expected) == 2
    victim = dfs.namenode.all_blocks()[1]
    wrong = dfs.factory.make("not this block", 1, BLOCK_SIZE)
    for name in victim.datanodes:
        dfs.datanode_by_name(name).store_content(victim.block.name, wrong, victim.version)
    chaos._verify_replicas(dfs, expected, problems)
    dfs.sim.run_process(chaos._verify_reads(dfs, expected, problems, blocks_fp))
    assert problems == [
        f"{victim.block.name}: replica {victim.datanodes[0]} diverged",
        f"{victim.block.name}: replica {victim.datanodes[1]} diverged",
        f"{victim.block.name} (/f) read back wrong content",
    ]


def test_chaos_cli_rejects_unknown_args():
    from repro.tools.chaos import main

    with pytest.raises(SystemExit):
        main(["--no-such-flag"])


def test_default_seed_is_stable():
    # The documented default: anyone running `make chaos` gets this plan.
    assert DEFAULT_SEED == 0xC4A05
