"""Bench: regenerate Fig. 1 and assert the middle-point shape."""

from conftest import rows_by_label


def test_fig1_design_space(benchmark, run_once):
    result = run_once(benchmark, "fig1")
    rows = rows_by_label(result)
    # Storage efficiency: triplication < raidp < erasure.
    assert (
        rows["triplication: storage"]
        < rows["raidp: storage"]
        < rows["erasure: storage"]
    )
    # Single-failure repair: raidp matches replication's ideal.
    assert rows["raidp: repair (1 failure)"] == rows["triplication: repair (1 failure)"]
    # Double-failure repair: raidp between erasure and replication.
    assert (
        rows["erasure: repair (2 failures)"]
        < rows["raidp: repair (2 failures)"]
        <= rows["triplication: repair (2 failures)"]
    )
    assert "middle-point property holds" in result.notes
