"""Unit and property tests for the superchunk layout (paper §3.1)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.layout import Layout, LayoutSpec, rotational_layout
from repro.errors import CapacityError, LayoutError


def test_spec_validates_geometry():
    with pytest.raises(ValueError):
        LayoutSpec(superchunk_size=0)
    with pytest.raises(ValueError):
        LayoutSpec(superchunk_size=100, block_size=64)
    spec = LayoutSpec(superchunk_size=6 * units.GiB, block_size=64 * units.MiB)
    assert spec.blocks_per_superchunk == 96


def test_add_superchunk_assigns_slots():
    layout = Layout(["a", "b", "c"])
    sc = layout.add_superchunk("a", "b")
    assert sc.slot_on("a") == 0
    assert sc.slot_on("b") == 0
    assert sc.mirror_of("a") == "b"
    sc2 = layout.add_superchunk("a", "c")
    assert sc2.slot_on("a") == 1
    assert sc2.slot_on("c") == 0


def test_one_sharing_enforced():
    layout = Layout(["a", "b", "c"])
    layout.add_superchunk("a", "b")
    with pytest.raises(LayoutError, match="1-sharing"):
        layout.add_superchunk("a", "b")
    with pytest.raises(LayoutError, match="1-sharing"):
        layout.add_superchunk("b", "a")


def test_self_mirror_rejected():
    layout = Layout(["a", "b"])
    with pytest.raises(LayoutError):
        layout.add_superchunk("a", "a")


def test_unknown_disk_rejected():
    layout = Layout(["a", "b"])
    with pytest.raises(LayoutError):
        layout.add_superchunk("a", "zz")


def test_capacity_bound_n_minus_one():
    layout = Layout(["a", "b", "c"])
    layout.add_superchunk("a", "b")
    layout.add_superchunk("a", "c")
    # "a" now holds 2 == N-1 superchunks; any further pairing is full.
    assert not layout.can_pair("a", "b")
    with pytest.raises((CapacityError, LayoutError)):
        layout.add_superchunk("a", "b")


def test_pairing_error_names_the_first_rule_broken():
    """One rule for every pairing: distinct known disks, different
    domains, no shared superchunk, room on each disk gaining a copy."""
    layout = Layout(["a", "b", "c"], domains={"a": "x", "b": "y", "c": "y"})
    layout.add_superchunk("a", "b")
    assert "distinct" in str(layout.pairing_error("b", "b", ("b",)))
    assert "unknown disk zz" in str(layout.pairing_error("b", "zz", ("zz",)))
    assert "failure domain" in str(layout.pairing_error("b", "c", ("c",)))
    assert "1-sharing" in str(layout.pairing_error("a", "b", ("a", "b")))
    layout = Layout(["a", "b", "c"])
    layout.add_superchunk("a", "b")
    layout.add_superchunk("a", "c")
    layout.remove_disk("c")
    layout.add_disk("e")  # "a" still holds its orphan of "c": full
    full = layout.pairing_error("e", "a", ("e", "a"))
    assert isinstance(full, CapacityError) and "disk a is full" in str(full)
    assert not layout.can_pair("a", "e")
    # A remirror from "a" gains a copy on "e" alone.
    assert layout.pairing_error("a", "e", ("e",)) is None


def test_shared_lookup():
    layout = Layout(["a", "b", "c"])
    sc = layout.add_superchunk("a", "b")
    assert layout.shared("a", "b") == sc.sc_id
    assert layout.shared("b", "a") == sc.sc_id
    assert layout.shared("a", "c") is None


def test_duplicate_disk_names_rejected():
    with pytest.raises(LayoutError):
        Layout(["a", "a"])


def test_remove_disk_returns_orphans():
    layout = Layout(["a", "b", "c"])
    sc1 = layout.add_superchunk("a", "b")
    sc2 = layout.add_superchunk("b", "c")
    orphans = layout.remove_disk("b")
    assert {sc.sc_id for sc in orphans} == {sc1.sc_id, sc2.sc_id}
    assert not layout.is_fully_mirrored
    assert "b" not in layout.disks


def test_remirror_restores_mirroring():
    layout = Layout(["a", "b", "c", "d"])
    sc = layout.add_superchunk("a", "b")
    layout.remove_disk("b")
    updated = layout.remirror(sc.sc_id, "c")
    assert updated.disks == frozenset({"a", "c"})
    assert layout.is_fully_mirrored
    layout.verify()


def test_remirror_rejects_sharing_violation():
    layout = Layout(["a", "b", "c"])
    layout.add_superchunk("a", "c")
    sc = layout.add_superchunk("a", "b")
    layout.remove_disk("b")
    # a and c already share: re-homing sc onto c would violate 1-sharing.
    with pytest.raises(LayoutError, match="1-sharing"):
        layout.remirror(sc.sc_id, "c")


def test_remirror_rejects_survivor_disk():
    layout = Layout(["a", "b", "c"])
    sc = layout.add_superchunk("a", "b")
    layout.remove_disk("b")
    with pytest.raises(LayoutError):
        layout.remirror(sc.sc_id, "a")


def test_remirror_only_for_singly_homed():
    layout = Layout(["a", "b", "c"])
    sc = layout.add_superchunk("a", "b")
    with pytest.raises(LayoutError):
        layout.remirror(sc.sc_id, "c")


def test_bounds_formulas():
    assert Layout.max_total_superchunks(7) == 21
    assert Layout.max_after_failures(7, 2) == 10
    assert Layout.max_after_failures(2, 2) == 0


def test_min_superchunk_size():
    layout = Layout([f"d{i}" for i in range(1000)])
    # 1000 disks of 4TB: ~4GB superchunks (the paper's example).
    size = layout.min_superchunk_size(4 * units.TB)
    assert size == -(-4 * units.TB // 999)


@pytest.mark.parametrize("num_disks", [2, 3, 4, 5, 7, 8, 16, 17])
def test_rotational_layout_invariants(num_disks):
    layout = rotational_layout(num_disks)
    layout.verify()
    # 1-sharing exhaustively.
    for a, b in itertools.combinations(layout.disks, 2):
        shared = [
            sc
            for sc in layout.superchunks.values()
            if sc.disks == frozenset((a, b))
        ]
        assert len(shared) <= 1
    # 1-mirroring: every superchunk has exactly two distinct homes.
    for sc in layout.superchunks.values():
        assert len(sc.disks) == 2


@pytest.mark.parametrize("num_disks", [3, 5, 7, 9, 16, 17])
def test_rotational_layout_fills_to_n_minus_one(num_disks):
    layout = rotational_layout(num_disks)
    counts = [len(layout.superchunks_of(d)) for d in layout.disks]
    assert max(counts) <= num_disks - 1
    # The construction should come close to the bound for odd N and
    # reach N-1 via the half row for even N; allow a small shortfall.
    assert min(counts) >= num_disks - 3


def test_rotational_layout_respects_target():
    layout = rotational_layout(10, superchunks_per_disk=4)
    for disk in layout.disks:
        assert len(layout.superchunks_of(disk)) <= 4


def test_rotational_layout_rejects_impossible_target():
    with pytest.raises(CapacityError):
        rotational_layout(4, superchunks_per_disk=6)


def test_rotational_layout_custom_names():
    layout = rotational_layout(3, disk_names=["x", "y", "z"])
    assert set(layout.disks) == {"x", "y", "z"}
    with pytest.raises(LayoutError):
        rotational_layout(3, disk_names=["x", "y"])


def test_seven_disk_example_matches_paper_shape():
    """Fig. 3: seven disks, six superchunks each, every pair shares one."""
    layout = rotational_layout(7)
    for disk in layout.disks:
        assert len(layout.superchunks_of(disk)) == 6
    # With N-1 superchunks per disk, every pair of disks shares exactly one.
    for a, b in itertools.combinations(layout.disks, 2):
        assert layout.shared(a, b) is not None
    assert len(layout.superchunks) == 21  # 7*6/2


def test_render_contains_all_disks():
    layout = rotational_layout(5)
    art = layout.render()
    for disk in layout.disks:
        assert disk in art


@settings(max_examples=30, deadline=None)
@given(num_disks=st.integers(min_value=2, max_value=24))
def test_property_rotational_layout_always_legal(num_disks):
    layout = rotational_layout(num_disks)
    layout.verify()
    total = len(layout.superchunks)
    assert total <= Layout.max_total_superchunks(num_disks)


@settings(max_examples=30, deadline=None)
@given(
    num_disks=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_random_failure_leaves_recoverable_layout(num_disks, seed):
    """After removing any one disk, every orphan has a surviving home and
    the remaining layout still verifies."""
    import random

    rng = random.Random(seed)
    layout = rotational_layout(num_disks)
    victim = rng.choice(layout.disks)
    orphans = layout.remove_disk(victim)
    layout.verify()
    for sc in orphans:
        survivors = [d for d in sc.disks if d in layout.disks]
        assert len(survivors) == 1
