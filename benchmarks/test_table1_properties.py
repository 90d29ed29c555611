"""Bench: regenerate Table 1 and assert the headline ratings."""

from conftest import rows_by_label


BEST, MID, WORST = 1.0, 0.0, -1.0


def test_table1_property_matrix(benchmark, run_once):
    result = run_once(benchmark, "table1")
    rows = rows_by_label(result)
    # RAIDP's wins: sub-stripe write network, degraded reads, single-
    # failure repair, disk sequentiality.
    assert rows["write network: sub-stripe [raidp]"] == BEST
    assert rows["degraded read [raidp]"] == BEST
    assert rows["repair traffic: single failure [raidp]"] == BEST
    assert rows["disk sequentiality [raidp]"] == BEST
    # RAIDP's two bolded losses: multi-block disk writes, failure domains.
    assert rows["write disk: multi-block [raidp]"] == WORST
    assert rows["failure domain tolerance [raidp]"] == WORST
    # Capacity: erasure best, triplication worst, RAIDP between.
    assert rows["storage capacity [ec]"] == BEST
    assert rows["storage capacity [3rep]"] == WORST
    assert rows["storage capacity [raidp]"] == MID
    # Erasure coding's repair-traffic weakness.
    assert rows["repair traffic: single failure [ec]"] == WORST
    assert rows["repair traffic: dual failure [ec]"] == WORST
