"""The recovery plan (paper §3.3): one pure function of the layout sorts
what a dead set leaves of each superchunk into remirror, decode or lost
(:func:`repro.core.layout.plan_recovery`), and the simulated recovery
loses exactly what it says."""

import itertools
import random

import pytest

from repro.core.layout import plan_recovery, rotational_layout
from tests import dead_sets


def losing_sets(layout, size):
    """The dead sets of ``size`` that lose data with every node up and
    every Lstor alive."""
    disks = layout.disks
    return [
        dead
        for dead in itertools.combinations(disks, size)
        if plan_recovery(layout, dead, disks, disks).lost
    ]


@pytest.mark.parametrize(
    "num_disks, per_disk, size, losing, of",
    [(10, 3, 3, 4, 120), (10, 3, 4, 43, 210), (26, 4, 3, 26, 2600)],
)
def test_single_round_loss_counts(num_disks, per_disk, size, losing, of):
    """The single-round column of ROADMAP item 18's table, from the
    planner alone.  On Fig. 3's 10-disk layout a triple loses data
    exactly when it is a triangle of the sharing graph."""
    layout = rotational_layout(num_disks, per_disk)
    lost = losing_sets(layout, size)
    assert (len(lost), len(list(itertools.combinations(layout.disks, size)))) == (losing, of)
    if size == 3:
        assert all(
            layout.shared(a, b) is not None for dead in lost for a, b in itertools.combinations(dead, 2)
        )


def test_a_pair_decodes_through_either_lstor():
    """Two sharing disks: their shared superchunk decodes through each,
    in name order, and everything else on them remirrors from its mirror."""
    layout = rotational_layout(10, 3)
    disks = layout.disks
    pair = ("d0", "d1")
    shared = layout.shared(*pair)
    plan = plan_recovery(layout, pair[::-1], disks, disks)
    assert plan.lost == [] and list(plan.decode) == [shared]
    assert [disk for disk, _chain in plan.decode[shared]] == list(pair)
    for disk, chain in plan.decode[shared]:
        assert list(chain) == [sc for sc in layout.superchunks_of(disk) if sc != shared]
    assert plan.remirror == {
        sc: layout.superchunk(sc).mirror_of(disk)
        for disk in sorted(pair)
        for sc in layout.superchunks_of(disk)
        if sc != shared
    }
    # An unreadable mirror of d0's blocks d0's chain and sends nothing.
    mirror = layout.superchunk(layout.superchunks_of("d0")[1]).mirror_of("d0")
    plan = plan_recovery(layout, pair, [d for d in disks if d != mirror], disks)
    assert [disk for disk, _chain in plan.decode[shared]] == ["d1"]
    assert mirror not in plan.remirror.values()
    # Neither Lstor decodes: the shared superchunk is lost.
    plan = plan_recovery(layout, pair, disks, [d for d in disks if d not in pair])
    assert plan.lost == [shared] and plan.decode == {}


#: The four-disk dead sets whose remirror leaves an orphan unplaced
#: (n0+n3+n4+n9, n1+n2+n5+n6), or would if an exchange's dearer edge
#: were dropped for good (the other three).
UNPLACEABLE = [
    ("n0", "n1", "n3", "n6"),
    ("n0", "n2", "n3", "n6"),
    ("n0", "n3", "n4", "n9"),
    ("n1", "n2", "n5", "n6"),
    ("n2", "n6", "n7", "n9"),
]


def _sample():
    """Every triple that loses data, the four-sets above, and a seeded
    handful of the rest."""
    layout = rotational_layout(10, 3, disk_names=dead_sets.DISKS)
    losing = losing_sets(layout, 3)
    rest = [
        dead for dead in dead_sets.dead_sets()
        if dead not in losing and dead not in UNPLACEABLE
    ]
    return losing + UNPLACEABLE + random.Random(7).sample(rest, 6)


@pytest.mark.parametrize("dead", _sample(), ids="+".join)
def test_the_simulator_loses_what_the_plan_says(dead):
    """``failure_body`` raises nothing, records exactly the planner's
    lost set, and every surviving block reads back bit-exact
    (``make dead-sets`` runs all 385 dead sets of size 1-4)."""
    dead_sets.check(dead)
