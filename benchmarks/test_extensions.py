"""Benches for the beyond-the-paper extension experiments."""

import pytest
from conftest import rows_by_label

from repro.experiments import ext_ssd
from repro.experiments.common import pick_scale
from repro.experiments.ext_durability import run as run_durability
from repro.experiments.ext_ssd import run as run_ssd
from repro.experiments.ext_updates import run as run_updates
from repro.sim.disk import DiskGeometry, ssd_geometry
from tests.oracles import assert_rows_agree, packet_train_differential


# Both scales: the 10,000-disk fleet is the one the engine exists for.
@pytest.mark.parametrize("full_scale", [False, True], ids=["smoke", "full"])
def test_ext_durability(benchmark, run_once, full_scale):
    result = run_once(benchmark, run_durability, full_scale=full_scale)
    rows = rows_by_label(result)
    # Analytic ladder: rep2 << raidp == rep3 << raidp(2 lstors).
    assert rows["analytic MTTDL [rep2] (years)"] < rows["analytic MTTDL [raidp] (years)"]
    assert rows["analytic MTTDL [raidp] (years)"] == rows["analytic MTTDL [rep3] (years)"]
    assert (
        rows["analytic MTTDL [raidp(2 lstors)] (years)"]
        > rows["analytic MTTDL [raidp] (years)"]
    )
    # Monte-Carlo: RAIDP's durability between 2-way and triplication...
    assert rows["MC nines [rep2]"] < rows["MC nines [raidp]"] < rows["MC nines [rep3]"]
    # ...and availability worse than triplication (the §2 trade).
    assert (
        rows["MC availability nines [raidp]"] < rows["MC availability nines [rep3]"]
    )


def test_ext_updates(benchmark, run_once):
    result = run_once(benchmark, run_updates)
    rows = rows_by_label(result)
    assert rows["runtime speedup (rewrite / in-place)"] > 1.5
    assert (
        rows["disk bytes written [in_place] (GiB)"]
        < rows["disk bytes written [rewrite] (GiB)"]
    )
    assert rows["trace update amplification (x)"] > 10


def test_ext_ssd(benchmark, run_once):
    result = run_once(benchmark, run_ssd)
    rows = rows_by_label(result)
    # The unoptimized layout's ping-pong penalty collapses on flash.
    assert (
        rows["raidp unopt only-superchunks [SSD]"]
        < rows["raidp unopt only-superchunks [HDD]"] / 1.5
    )
    # The re-write variant settles near the per-disk transfer bound (2x).
    assert 1.5 < rows["raidp re-write +journal [SSD]"] < 2.3


def test_ext_ssd_unoptimized_rows_agree_with_the_packet_loop(monkeypatch):
    """The unoptimized cell on HDD and on SSD: within 0.5% of the packet
    loop, with the same network bytes."""
    scale = pick_scale(False)
    label = "raidp unopt only-superchunks"
    builders = {
        media: (lambda geometry=geometry: ext_ssd.build_raidp(geometry, scale, label))
        for media, geometry in (("HDD", DiskGeometry()), ("SSD", ssd_geometry()))
    }
    train, oracle = packet_train_differential(
        builders, scale.unoptimized_dataset, monkeypatch
    )
    assert_rows_agree(
        {media: runtime for media, (runtime, _net) in train.items()},
        {media: runtime for media, (runtime, _net) in oracle.items()},
        rel=0.005,
    )
    assert {media: net for media, (_rt, net) in train.items()} == {
        media: net for media, (_rt, net) in oracle.items()
    }
