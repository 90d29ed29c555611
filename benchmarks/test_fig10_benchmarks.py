"""Bench: regenerate Fig. 10 and assert the four workloads' deltas."""

from conftest import rows_by_label


def test_fig10_benchmark_suite(benchmark, run_once):
    result = run_once(benchmark, "fig10")
    rows = rows_by_label(result)

    # Write: RAIDP clearly faster, network halved.
    assert -0.35 < rows["write: runtime delta"] < -0.10
    assert abs(rows["write: network delta"] - (-0.50)) < 0.05

    # TeraSort: smaller runtime win (read+CPU dilute the write savings),
    # DFS-layer network halved like writing.
    assert -0.20 < rows["terasort: runtime delta"] < 0.0
    assert rows["terasort: runtime delta"] > rows["write: runtime delta"]
    assert abs(rows["terasort: network delta"] - (-0.50)) < 0.10

    # WordCount: CPU-bound, runtimes nearly identical.
    assert abs(rows["wordcount: runtime delta"]) < 0.10

    # Read: near parity (paper +3% with an 8% stddev; direction varies
    # with placement seeds).
    assert abs(rows["read: runtime delta"]) < 0.15
    assert abs(rows["read: network delta"]) < 0.15
