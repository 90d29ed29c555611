"""Bench: regenerate Fig. 9 and assert reads are configuration-blind."""

from conftest import rows_by_label


def test_fig9_read_performance(benchmark, run_once):
    result = run_once(benchmark, "fig9")
    rows = rows_by_label(result)
    # Every configuration reads within ~10% of HDFS-3 (paper: 0.96-1.03).
    for label, measured in rows.items():
        assert 0.85 < measured < 1.15, f"{label} read ratio {measured}"
