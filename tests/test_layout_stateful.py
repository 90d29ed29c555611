"""Stateful property test: the layout invariants survive any op sequence.

Hypothesis drives random interleavings of superchunk allocation, disk
failure, re-mirroring, and re-homing against a model; after every step
the 1-sharing/1-mirroring verifier must pass and the model must agree
with the layout's bookkeeping.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.layout import Layout, LayoutSpec
from repro import units

DISKS = [f"d{i}" for i in range(8)]


class LayoutMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.layout = Layout(
            DISKS,
            LayoutSpec(superchunk_size=4 * units.MiB, block_size=units.MiB),
        )
        # Model: sc_id -> set of live homes; pair -> sc_id.
        self.homes = {}
        self.live_disks = set(DISKS)

    # ------------------------------------------------------------------
    # Rules.
    # ------------------------------------------------------------------
    @rule(data=st.data())
    def allocate(self, data):
        candidates = [
            (a, b)
            for a in sorted(self.live_disks)
            for b in sorted(self.live_disks)
            if a < b and self.layout.can_pair(a, b)
        ]
        if not candidates:
            return
        a, b = data.draw(st.sampled_from(candidates), label="pair")
        sc = self.layout.add_superchunk(a, b)
        self.homes[sc.sc_id] = {a, b}

    @precondition(lambda self: len(self.live_disks) > 3)
    @rule(data=st.data())
    def fail_disk(self, data):
        victim = data.draw(st.sampled_from(sorted(self.live_disks)), label="victim")
        self.layout.remove_disk(victim)
        self.live_disks.remove(victim)
        for homes in self.homes.values():
            homes.discard(victim)

    @rule(data=st.data())
    def remirror_orphan(self, data):
        orphans = [sc for sc, homes in self.homes.items() if len(homes) == 1]
        if not orphans:
            return
        sc_id = data.draw(st.sampled_from(sorted(orphans)), label="orphan")
        survivor = next(iter(self.homes[sc_id]))
        receivers = [
            d
            for d in sorted(self.live_disks)
            if d != survivor
            and self.layout.shared(survivor, d) is None
            and len(self.layout.superchunks_of(d)) < self.layout.max_superchunks()
        ]
        if not receivers:
            return
        receiver = data.draw(st.sampled_from(receivers), label="receiver")
        self.layout.remirror(sc_id, receiver)
        self.homes[sc_id].add(receiver)

    @rule(data=st.data())
    def rehome_doubly_lost(self, data):
        lost = [sc for sc, homes in self.homes.items() if len(homes) == 0]
        if not lost:
            return
        sc_id = data.draw(st.sampled_from(sorted(lost)), label="lost")
        pairs = [
            (a, b)
            for a in sorted(self.live_disks)
            for b in sorted(self.live_disks)
            if a < b and self.layout.can_pair(a, b)
        ]
        if not pairs:
            return
        a, b = data.draw(st.sampled_from(pairs), label="new-pair")
        self.layout.rehome(sc_id, a, b)
        self.homes[sc_id] = {a, b}

    # ------------------------------------------------------------------
    # Invariants.
    # ------------------------------------------------------------------
    @invariant()
    def verifier_passes(self):
        self.layout.verify()

    @invariant()
    def model_agrees(self):
        assert set(self.layout.disks) == self.live_disks
        for sc_id, homes in self.homes.items():
            sc = self.layout.superchunk(sc_id)
            live_homes = {d for d in sc.disks if d in self.live_disks}
            assert live_homes == homes, f"superchunk {sc_id}"

    @invariant()
    def one_sharing_globally(self):
        seen = set()
        for sc_id, homes in self.homes.items():
            if len(homes) == 2:
                pair = frozenset(homes)
                assert pair not in seen, f"pair {sorted(pair)} shares twice"
                seen.add(pair)


LayoutMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestLayoutStateMachine = LayoutMachine.TestCase
