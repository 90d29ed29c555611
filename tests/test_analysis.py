"""Tests for the analytic models (Fig. 1, Table 1, Fig. 7, §4 costs)."""

import pytest

from repro.analysis.cost import (
    FIG7_BREAKDOWN,
    HYPERCONVERGED,
    SUPERMICRO,
    DatacenterCostModel,
    LstorBom,
    ServerExample,
    fig7_rows,
)
from repro.analysis.design_space import design_space_points, verify_middle_point
from repro.analysis.properties import (
    SCHEMES,
    Rating,
    property_matrix,
    render_matrix,
)
from repro.analysis.scheme import DurabilityModelError, Scheme, paper_schemes


# ----------------------------------------------------------------------
# Repair traffic.
# ----------------------------------------------------------------------
def test_replication_repair_is_ideal():
    assert Scheme.replication(3).repair_volume(1) == 1.0
    assert Scheme.replication(3).repair_volume(2) == 1.0


def test_erasure_repair_costs_n():
    assert Scheme.erasure(10).repair_volume(1) == 10.0


def test_raidp_single_failure_matches_replication():
    assert Scheme.raidp(superchunks_per_disk=15).repair_volume(1) == 1.0


def test_raidp_double_failure_between_extremes():
    volume = Scheme.raidp(superchunks_per_disk=15).repair_volume(2)
    assert 1.0 < volume < 10.0
    # With S=15: (2*15-2 + 15) / (2*15-1) = 43/29.
    assert volume == pytest.approx(43 / 29)


def test_repair_traffic_dispatch():
    """The formulas dispatch on ``kind``; an unknown kind is no scheme."""
    assert Scheme.erasure(6).repair_volume(1) == 6.0
    with pytest.raises(DurabilityModelError):
        Scheme(name="parchive", kind="parchive", width=3, tolerance=2, needed_online=1)


def test_repair_traffic_validation():
    with pytest.raises(DurabilityModelError):
        Scheme.erasure(0)
    with pytest.raises(DurabilityModelError):
        Scheme.raidp(superchunks_per_disk=0).repair_volume(2)


# ----------------------------------------------------------------------
# Fig. 1 design space.
# ----------------------------------------------------------------------
def test_storage_efficiencies():
    triplication, erasure, raidp = paper_schemes(n=10, superchunks_per_disk=15)
    assert triplication.storage_efficiency == pytest.approx(1 / 3)
    assert erasure.storage_efficiency == pytest.approx(10 / 12)
    # RAIDP with 15 superchunks/disk: 15 useful per 31 raw.
    assert raidp.storage_efficiency == pytest.approx(15 / 31)


def test_raidp_is_a_middle_point():
    points = design_space_points()
    assert verify_middle_point(points)


def test_design_point_rows_render():
    for point in design_space_points():
        assert point.scheme in point.row()


def test_fig1_values_are_pinned():
    """All nine Fig. 1 values, as printed before the rows were derived
    from ``Scheme`` (n=10, S=15)."""
    assert {
        p.scheme: (
            p.storage_efficiency,
            p.repair_efficiency_single,
            p.repair_efficiency_double,
        )
        for p in design_space_points()
    } == {
        "triplication": (0.3333333333333333, 1.0, 1.0),
        "erasure": (0.8333333333333334, 0.1, 0.1),
        "raidp": (0.4838709677419355, 1.0, 0.6744186046511628),
    }


# ----------------------------------------------------------------------
# Table 1 property matrix.
# ----------------------------------------------------------------------
def expected_table1():
    """The published Table 1 symbols (bold cases included)."""
    return {
        "storage capacity": {"3rep": "-", "ec": "+", "raidp": "±"},
        "read parallelism / load balancing": {"3rep": "+", "ec": "-", "raidp": "±"},
        "degraded read": {"3rep": "+", "ec": "-", "raidp": "+"},
        "cpu consumption (sync latency)": {"3rep": "+", "ec": "-", "raidp": "±"},
        "disk sequentiality": {"3rep": "+", "ec": "-", "raidp": "+"},
        "write network: sub-stripe": {"3rep": "±", "ec": "-", "raidp": "+"},
        "write network: full stripe": {"3rep": "-", "ec": "+", "raidp": "±"},
        "write disk: sub-sector": {"3rep": "+", "ec": "-", "raidp": "-"},
        "write disk: sub-block": {"3rep": "+", "ec": "-", "raidp": "±"},
        "write disk: multi-block": {"3rep": "±", "ec": "+", "raidp": "-"},
        "repair traffic: single failure": {"3rep": "+", "ec": "-", "raidp": "+"},
        "repair traffic: dual failure": {"3rep": "+", "ec": "-", "raidp": "±"},
        "failure domain tolerance": {"3rep": "+", "ec": "+", "raidp": "-"},
    }


def test_property_matrix_matches_paper():
    """The derived ratings reproduce the published Table 1.

    Two deliberate deviations from the paper's exact symbols, both noted
    in DESIGN.md: the paper's 'write disk sub-sector' row marks 3rep '-'
    and ec/raidp '±' by a different accounting; and its 'failure domain
    tolerance' calls both 3rep and ec '+'.  We assert the orderings that
    matter: who is best, who is worst, and where RAIDP falls.
    """
    rows = {row.name: row for row in property_matrix()}
    expected = expected_table1()
    # Spot-check the headline rows exactly.
    exact_rows = [
        "storage capacity",
        "read parallelism / load balancing",
        "degraded read",
        "disk sequentiality",
        "write network: sub-stripe",
        "write network: full stripe",
        "repair traffic: single failure",
        "repair traffic: dual failure",
    ]
    for name in exact_rows:
        derived = {s: rows[name].ratings[s].value for s in SCHEMES}
        assert derived == expected[name], f"row {name!r}: {derived}"
    # The two bolded worst-cases of the paper must hold: RAIDP is worst
    # (or tied-worst) on multi-block disk writes and failure domains.
    assert rows["write disk: multi-block"].ratings["raidp"] is Rating.WORST
    worst_value = max(rows["failure domain tolerance"].values.values())
    assert rows["failure domain tolerance"].values["raidp"] == worst_value


#: Table 1 as derived before its rows were read off ``Scheme`` (n=10,
#: S=15): (row, costs, ratings), both in ``SCHEMES`` order.
TABLE1_GOLDEN = [
    ("storage capacity", (3.0, 1.2, 2.066666666666667), "-+±"),
    ("read parallelism / load balancing", (0.3333333333333333, 1.0, 0.5), "+-±"),
    ("degraded read", (1.0, 10.0, 1.0), "+-+"),
    ("cpu consumption (sync latency)", (0.0, 2.0, 1.0), "+-±"),
    ("disk sequentiality", (1.0, 10.0, 1.0), "+-+"),
    ("write network: sub-stripe", (2.0, 4.0, 1.0), "±-+"),
    ("write network: full stripe", (2.0, 0.2, 1.0), "-+±"),
    ("write disk: sub-sector", (1.0, 2.0, 2.0), "+--"),
    ("write disk: sub-block", (3.0, 12.0, 4.0), "+-±"),
    ("write disk: multi-block", (3.0, 1.2, 4.0), "±+-"),
    ("repair traffic: single failure", (1.0, 10.0, 1.0), "+-+"),
    ("repair traffic: dual failure", (1.0, 10.0, 1.4827586206896552), "+-±"),
    (
        "failure domain tolerance",
        (0.3333333333333333, 0.08333333333333333, 0.5),
        "±+-",
    ),
]


def test_table1_values_and_ratings_are_pinned():
    rows = property_matrix()
    assert [row.name for row in rows] == [name for name, _, _ in TABLE1_GOLDEN]
    for row, (name, costs, ratings) in zip(rows, TABLE1_GOLDEN):
        assert "".join(row.ratings[s].value for s in SCHEMES) == ratings, name
        assert [row.values[s] for s in SCHEMES] == pytest.approx(
            list(costs), rel=1e-12
        ), name


@pytest.mark.parametrize("n, s", [(10, 15), (6, 128), (4, 999)])
def test_fig1_and_table1_move_together(n, s):
    """Both read the same ``Scheme`` objects, so a change of ``n`` or
    ``S`` cannot reach one and miss the other."""
    points = design_space_points(n, s)
    rows = {row.name: row.values for row in property_matrix(n, s)}
    for key, point in zip(SCHEMES, points):
        assert rows["storage capacity"][key] == pytest.approx(
            1 / point.storage_efficiency, rel=1e-12
        )
        assert rows["repair traffic: dual failure"][key] == pytest.approx(
            1 / point.repair_efficiency_double, rel=1e-12
        )
    assert rows["storage capacity"]["ec"] == pytest.approx((n + 2) / n)
    assert rows["storage capacity"]["raidp"] == pytest.approx(2 + 1 / s)


def test_property_matrix_covers_all_rows():
    rows = property_matrix()
    assert len(rows) == 13
    for row in rows:
        assert set(row.ratings) == set(SCHEMES)


def test_render_matrix_is_ascii_table():
    text = render_matrix(property_matrix())
    assert "storage capacity" in text
    for scheme in SCHEMES:
        assert scheme in text


# ----------------------------------------------------------------------
# Section 4 cost model and Fig. 7.
# ----------------------------------------------------------------------
def test_lstor_bom_total():
    bom = LstorBom()
    assert bom.total == pytest.approx(30.0)


def test_third_disk_costs_66_percent_more_than_two_lstors():
    """The paper: a $100 disk is 66% more than two Lstors (~$60)."""
    model = DatacenterCostModel(derived_disk_cost=100.0)
    assert model.lstor_pair_vs_third_replica() == pytest.approx(100 / 60, rel=0.01)


def test_hyperconverged_derived_cost_near_3k():
    assert HYPERCONVERGED.derived_disk_cost == pytest.approx(3316.7, rel=0.01)
    assert HYPERCONVERGED.derived_multiplier > 20


def test_supermicro_derived_cost_triples_direct():
    assert SUPERMICRO.derived_multiplier == pytest.approx(2.56, rel=0.02)


def test_fig7_breakdown_sums_to_one():
    assert sum(fig7_rows().values()) == pytest.approx(1.0)
    assert fig7_rows()["servers"] == pytest.approx(0.57)


def test_infrastructure_overhead_is_43_percent():
    model = DatacenterCostModel()
    assert model.infrastructure_overhead_fraction() == pytest.approx(0.43)


def test_raidp_savings_approach_one_third():
    model = DatacenterCostModel()
    savings = model.raidp_savings_fraction()
    assert 0.30 < savings < 1 / 3


def test_savings_shrink_when_lstors_are_expensive():
    cheap = DatacenterCostModel()
    pricey = DatacenterCostModel(
        lstor=LstorBom(flash_and_dram=200, microcontroller=50, supercap_and_enclosure=100)
    )
    assert pricey.raidp_savings_fraction() < cheap.raidp_savings_fraction()


def test_breakdown_must_sum_to_one():
    with pytest.raises(ValueError):
        DatacenterCostModel(breakdown={"servers": 0.5})


def test_tco_validation():
    model = DatacenterCostModel()
    with pytest.raises(ValueError):
        model.tco_per_useful_disk(replication=0)
