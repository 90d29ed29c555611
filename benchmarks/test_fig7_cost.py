"""Bench: regenerate Fig. 7 / §4 cost analysis and assert its claims."""

import pytest
from conftest import rows_by_label


def test_fig7_cost_analysis(benchmark, run_once):
    result = run_once(benchmark, "fig7")
    rows = rows_by_label(result)
    # The Fig. 7 breakdown: servers dominate, overheads are ~43%.
    assert rows["TCO share: servers"] == pytest.approx(0.57)
    assert rows["infrastructure overhead fraction"] == pytest.approx(0.43)
    # A third disk costs ~66% more than two Lstors.
    assert rows["third disk vs two Lstors (x)"] == pytest.approx(1.66, rel=0.02)
    # Derived (server-attached) disk costs dwarf street prices.
    assert rows["hyper-converged derived disk cost ($)"] > 3000
    assert rows["supermicro derived-cost multiplier (x)"] > 2
    # RAIDP's TCO savings approach (but never exceed) the 1/3 bound.
    assert 0.30 < rows["RAIDP TCO savings fraction"] < 1 / 3
