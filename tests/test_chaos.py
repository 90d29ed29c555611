"""A fast chaos-soak smoke test: same-seed determinism and survival.

The full soak (``make chaos`` / ``python -m repro.tools.chaos``) runs a
heavier randomized schedule; this keeps a single reduced configuration in
the tier-1 suite so regressions in the failure lifecycle surface in CI.
"""

import pytest

from repro.core.cluster import RaidpCluster
from repro.faults import chaos_schedule
from repro.tools.chaos import (
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


def test_chaos_cli_rejects_unknown_args():
    from repro.tools.chaos import main

    with pytest.raises(SystemExit):
        main(["--no-such-flag"])


def test_default_seed_is_stable():
    # The documented default: anyone running `make chaos` gets this plan.
    assert DEFAULT_SEED == 0xC4A05
