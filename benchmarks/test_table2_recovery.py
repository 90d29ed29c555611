"""Bench: regenerate Table 2 and assert the recovery-time orderings."""

from conftest import rows_by_label

from repro.experiments import table2_recovery
from repro.experiments.table2_recovery import run
from tests.oracles import assert_rows_agree, table2_differential


def test_table2_recovery_runtimes(benchmark, run_once):
    result = run_once(benchmark, run)
    rows = rows_by_label(result)

    byte4 = rows["raidp byte_range 4MB @10Gbps"]
    byte64 = rows["raidp byte_range 64MB @10Gbps"]
    sc64 = rows["raidp superchunk 64MB @10Gbps"]
    sc4 = rows["raidp superchunk 4MB @10Gbps"]

    # The paper's @10Gbps ordering: byte/4MB < byte/64MB < sc/64MB < sc/4MB.
    assert byte4 < byte64 < sc64 < sc4
    # Spread roughly 125 -> 211 (a ~1.7x range).
    assert 1.4 < sc4 / byte4 < 2.2

    # At 1Gbps the network is the bottleneck: all RAIDP rows flatten into
    # a narrow band (the paper's 827-852s).
    one_gig = [v for k, v in rows.items() if k.startswith("raidp") and "@1Gbps" in k]
    assert max(one_gig) / min(one_gig) < 1.1
    # And the band sits far above the 10Gbps numbers.
    assert min(one_gig) > 3 * sc4

    # RAID-6 rebuilds entire disks: an order of magnitude slower.
    raid6_10g = rows["raid6 4MB @10Gbps"]
    raid6_1g = rows["raid6 4MB @1Gbps"]
    assert raid6_10g > 8 * byte4
    assert raid6_1g > 8 * rows["raidp byte_range 4MB @1Gbps"]
    # Larger chunks slow the RAID-6 decode too (cache effects).
    assert rows["raid6 64MB @10Gbps"] >= raid6_10g


def test_table2_rows_agree_with_the_chunk_loop(monkeypatch):
    """All twelve rows on the fluid lane against the per-chunk oracle
    (``tests.oracles.discrete_lane``): each within 1%, every pair the
    oracle separates by more than that in the same order.  ~15 s, most
    of it the oracle's RAID-6 4 MB gathers; tier-1 runs the cheap rows
    (``tests/test_transfer.py``)."""
    fluid, oracle = table2_differential(table2_recovery.tasks(), monkeypatch)
    assert len(oracle) == 12
    assert_rows_agree(fluid, oracle)
