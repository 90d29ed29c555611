"""Tests for the analytic MTTDL ladder (paper §2).

The Monte-Carlo side of the §2 argument is ``tests/test_montecarlo.py``.
"""

import pytest

from repro.analysis.scheme import (
    default_schemes,
    mttdl_erasure,
    mttdl_raidp,
    mttdl_replication,
)


def test_more_replicas_last_longer():
    two = mttdl_replication(2, 1e6, 12.0)
    three = mttdl_replication(3, 1e6, 12.0)
    assert three > two * 100  # each extra replica multiplies MTTDL


def test_faster_rebuild_improves_mttdl():
    slow = mttdl_replication(3, 1e6, 48.0)
    fast = mttdl_replication(3, 1e6, 6.0)
    assert fast > slow


def test_raidp_matches_triplication_class_durability():
    """The paper's durability claim: RAIDP with one Lstor tolerates the
    same double failure as triplication."""
    raidp = mttdl_raidp(1e6, 12.0)
    rep3 = mttdl_replication(3, 1e6, 12.0)
    rep2 = mttdl_replication(2, 1e6, 12.0)
    assert raidp == pytest.approx(rep3)
    assert raidp > rep2 * 1000


def test_unreliable_lstor_degrades_durability():
    perfect = mttdl_raidp(1e6, 12.0)
    flaky = mttdl_raidp(1e6, 12.0, lstor_mttf_hours=1e4)
    assert flaky < perfect
    assert flaky > mttdl_replication(2, 1e6, 12.0)  # still better than 2-rep


def test_stacked_lstors_increase_durability():
    one = mttdl_raidp(1e6, 12.0, lstors_per_disk=1)
    two = mttdl_raidp(1e6, 12.0, lstors_per_disk=2)
    assert two > one * 100


def test_erasure_wide_stripe_is_more_exposed():
    narrow = mttdl_erasure(4, 2, 1e6, 12.0)
    wide = mttdl_erasure(16, 2, 1e6, 12.0)
    assert narrow > wide  # more disks in a stripe, more exposure


def test_replication_validation():
    with pytest.raises(ValueError):
        mttdl_replication(0, 1e6, 12.0)


def test_summary_orders_schemes():
    summary = {s.name: s.mttdl_hours(1e6, 12.0) for s in default_schemes()}
    assert summary["rep2"] < summary["raidp"]
    assert summary["raidp"] == pytest.approx(summary["rep3"])
    assert summary["raidp(2 lstors)"] > summary["raidp"]
    assert summary["ec(6+2)"] == mttdl_erasure(6, 2, 1e6, 12.0)
