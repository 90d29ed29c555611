"""Superchunk layout: the 1-sharing / 1-mirroring invariants (paper §3.1).

A *superchunk* is a uniformly-sized contiguous disk region, mirrored
bitwise on exactly one other disk (1-mirroring).  The layout guarantees
that no two disks share more than one superchunk (1-sharing), so a double
disk failure loses at most one superchunk -- which the Lstors can then
rebuild.

:class:`Layout` is the incremental bookkeeper: superchunks are added one
mirror-pair at a time and every invariant is enforced at the point of
mutation.  :func:`rotational_layout` builds the paper's Fig. 3
construction (shifted row pairs) for any disk count, yielding the maximal
N-1 superchunks per disk.

Terminology used throughout the core package:

- ``disk id`` -- opaque string naming a disk (one per DataNode disk).
- ``superchunk id`` -- small integer, unique across the cluster.
- ``slot`` -- the position of a superchunk within its disk (superchunks
  are packed contiguously, so byte offset = slot * superchunk_size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import units
from repro.errors import CapacityError, LayoutError
from repro.sim.snapshot import InlineState


@dataclass(frozen=True)
class LayoutSpec(InlineState):
    """Geometry shared by every disk participating in a layout."""

    superchunk_size: int = 6 * units.GiB  # the paper's evaluation size
    block_size: int = 64 * units.MiB  # HDFS default

    def __post_init__(self) -> None:
        if self.superchunk_size <= 0 or self.block_size <= 0:
            raise ValueError("sizes must be positive")
        if self.superchunk_size % self.block_size != 0:
            raise ValueError("superchunk size must be a multiple of block size")

    @property
    def blocks_per_superchunk(self) -> int:
        return self.superchunk_size // self.block_size


@dataclass(frozen=True)
class Superchunk(InlineState):
    """One mirrored pair: the same content lives on two disks."""

    sc_id: int
    disk_a: str
    disk_b: str
    slot_a: int
    slot_b: int

    @property
    def disks(self) -> FrozenSet[str]:
        return frozenset((self.disk_a, self.disk_b))

    def slot_on(self, disk: str) -> int:
        if disk == self.disk_a:
            return self.slot_a
        if disk == self.disk_b:
            return self.slot_b
        raise LayoutError(f"superchunk {self.sc_id} is not on disk {disk}")

    def mirror_of(self, disk: str) -> str:
        if disk == self.disk_a:
            return self.disk_b
        if disk == self.disk_b:
            return self.disk_a
        raise LayoutError(f"superchunk {self.sc_id} is not on disk {disk}")


class Layout(InlineState):
    """Incremental superchunk layout with invariant enforcement.

    ``domains`` optionally maps each disk to a failure domain (a server,
    a rack); when given, a superchunk's two copies must live in distinct
    domains (paper §3.1: "replicas should be placed not just on
    different devices but also in different failure domains"), so losing
    an entire domain never loses both copies of anything.
    """

    def __init__(
        self,
        disks: Iterable[str],
        spec: Optional[LayoutSpec] = None,
        domains: Optional[Dict[str, str]] = None,
    ) -> None:
        self.spec = spec or LayoutSpec()
        self._disks: List[str] = list(disks)
        if len(set(self._disks)) != len(self._disks):
            raise LayoutError("duplicate disk ids")
        self._domains = dict(domains) if domains else None
        if self._domains is not None:
            missing = [d for d in self._disks if d not in self._domains]
            if missing:
                raise LayoutError(f"disks without a failure domain: {missing}")
        # failure domain -> its disks currently in the layout.
        self._domain_disks: Dict[str, List[str]] = {}
        if self._domains is not None:
            for disk in self._disks:
                self._domain_disks.setdefault(self._domains[disk], []).append(disk)
        self._superchunks: Dict[int, Superchunk] = {}
        # disk -> ordered slots (superchunk id per slot).
        self._slots: Dict[str, List[int]] = {d: [] for d in self._disks}
        # unordered disk pair -> superchunk id (the 1-sharing index).
        self._pair_index: Dict[FrozenSet[str], int] = {}
        self._next_id = 0
        #: Bumped by every mutator: caches derived from the slot tables
        #: (the superchunk map's per-disk load tally) key on it.
        self.mutations = 0

    def domain_of(self, disk: str) -> Optional[str]:
        """The disk's failure domain, or None when domains are unused."""
        if self._domains is None:
            return None
        return self._domains[disk]

    def disks_in_domain(self, domain: str) -> List[str]:
        """The layout's current disks whose failure domain is ``domain``."""
        return list(self._domain_disks.get(domain, ()))

    def same_domain(self, disk_a: str, disk_b: str) -> bool:
        """True iff both disks sit in one configured failure domain."""
        return (
            self._domains is not None
            and self._domains[disk_a] == self._domains[disk_b]
        )

    # Backwards-compatible private alias used internally.
    _same_domain = same_domain

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def disks(self) -> List[str]:
        return list(self._disks)

    def has_disk(self, disk: str) -> bool:
        return disk in self._slots

    @property
    def superchunks(self) -> Mapping[int, Superchunk]:
        """Read-only live view: sc_id -> record."""
        return MappingProxyType(self._superchunks)

    def superchunk(self, sc_id: int) -> Superchunk:
        try:
            return self._superchunks[sc_id]
        except KeyError:
            raise LayoutError(f"unknown superchunk {sc_id}") from None

    def superchunks_of(self, disk: str) -> List[int]:
        """Superchunk ids on ``disk``, ordered by slot."""
        try:
            return list(self._slots[disk])
        except KeyError:
            raise LayoutError(f"unknown disk {disk}") from None

    def holds(self, disk: str, sc_id: int) -> bool:
        """True iff ``disk`` is in the layout and stores a copy of ``sc_id``.

        A superchunk's record keeps *naming* a disk after that disk was
        removed -- and still does if the disk later rejoins empty -- so
        "named" is not "held": only this answers where copies live.
        """
        return sc_id in self._slots.get(disk, ())

    def is_mirrored(self, sc: Superchunk) -> bool:
        """True iff both disks the record names hold the superchunk."""
        return self.holds(sc.disk_a, sc.sc_id) and self.holds(sc.disk_b, sc.sc_id)

    def shared(self, disk_a: str, disk_b: str) -> Optional[int]:
        """The superchunk the two disks share, if any."""
        return self._pair_index.get(frozenset((disk_a, disk_b)))

    def max_superchunks(self) -> int:
        """Per-disk bound: one superchunk shared with each other disk."""
        return len(self._disks) - 1

    # ------------------------------------------------------------------
    # Mutation.
    # ------------------------------------------------------------------
    def can_pair(self, disk_a: str, disk_b: str) -> bool:
        """True if a new superchunk may legally span these two disks."""
        if disk_a == disk_b:
            return False
        if disk_a not in self._slots or disk_b not in self._slots:
            return False
        if self._same_domain(disk_a, disk_b):
            return False  # both copies in one failure domain
        if frozenset((disk_a, disk_b)) in self._pair_index:
            return False  # would violate 1-sharing
        return (
            len(self._slots[disk_a]) < self.max_superchunks()
            and len(self._slots[disk_b]) < self.max_superchunks()
        )

    def add_disk(self, disk: str, domain: Optional[str] = None) -> None:
        """Admit a (replacement) disk that holds no superchunks yet.

        The rejoin path uses this: a node whose data was re-homed during
        recovery restarts from wiped media, and its disk re-enters the
        layout empty -- a legal receiver for future superchunks.  The
        disk's old failure domain is remembered across removal, so
        ``domain`` is only needed for genuinely new disks.
        """
        if disk in self._slots:
            raise LayoutError(f"disk {disk} already in layout")
        if self._domains is not None:
            if domain is not None:
                self._domains[disk] = domain
            elif disk not in self._domains:
                raise LayoutError(f"disk {disk} needs a failure domain")
        self._disks.append(disk)
        self._slots[disk] = []
        if self._domains is not None:
            self._domain_disks.setdefault(self._domains[disk], []).append(disk)
        self.mutations += 1

    def add_superchunk(self, disk_a: str, disk_b: str) -> Superchunk:
        """Allocate a new mirrored superchunk across two disks."""
        if disk_a == disk_b:
            raise LayoutError(f"superchunk mirrors must be distinct disks: {disk_a}")
        if self._same_domain(disk_a, disk_b):
            raise LayoutError(
                f"{disk_a} and {disk_b} share failure domain "
                f"{self.domain_of(disk_a)!r}"
            )
        for disk in (disk_a, disk_b):
            if disk not in self._slots:
                raise LayoutError(f"unknown disk {disk}")
            if len(self._slots[disk]) >= self.max_superchunks():
                raise CapacityError(f"disk {disk} is full of superchunks")
        pair = frozenset((disk_a, disk_b))
        if pair in self._pair_index:
            raise LayoutError(
                f"disks {disk_a} and {disk_b} already share superchunk "
                f"{self._pair_index[pair]} (1-sharing)"
            )
        sc = Superchunk(
            sc_id=self._next_id,
            disk_a=disk_a,
            disk_b=disk_b,
            slot_a=len(self._slots[disk_a]),
            slot_b=len(self._slots[disk_b]),
        )
        self._next_id += 1
        self._superchunks[sc.sc_id] = sc
        self._slots[disk_a].append(sc.sc_id)
        self._slots[disk_b].append(sc.sc_id)
        self._pair_index[pair] = sc.sc_id
        self.mutations += 1
        return sc

    def remove_disk(self, disk: str) -> List[Superchunk]:
        """Drop a failed disk; returns its superchunks (now un-mirrored).

        The superchunks remain in the layout (their surviving copy is
        still addressable); re-mirroring them is the recovery planner's
        job via :meth:`remirror`.
        """
        if disk not in self._slots:
            raise LayoutError(f"unknown disk {disk}")
        orphans = [self._superchunks[sc] for sc in self._slots[disk]]
        for sc in orphans:
            self._pair_index.pop(sc.disks, None)
        del self._slots[disk]
        self._disks.remove(disk)
        if self._domains is not None:
            self._domain_disks[self._domains[disk]].remove(disk)
        self.mutations += 1
        return orphans

    def remirror(self, sc_id: int, new_disk: str) -> Superchunk:
        """Re-home one side of a superchunk onto ``new_disk``.

        Used after a disk failure: the surviving copy stays put, the lost
        copy is re-created on ``new_disk``.  All invariants re-checked.
        """
        old = self.superchunk(sc_id)
        survivors = [d for d in (old.disk_a, old.disk_b) if self.holds(d, sc_id)]
        if len(survivors) != 1:
            raise LayoutError(
                f"superchunk {sc_id} has {len(survivors)} surviving copies; "
                "remirror applies only to singly-homed superchunks"
            )
        survivor = survivors[0]
        if new_disk == survivor:
            raise LayoutError("cannot mirror a superchunk onto its own disk")
        if new_disk not in self._slots:
            raise LayoutError(f"unknown disk {new_disk}")
        if self._same_domain(survivor, new_disk):
            raise LayoutError(
                f"{survivor} and {new_disk} share failure domain "
                f"{self.domain_of(survivor)!r}"
            )
        pair = frozenset((survivor, new_disk))
        if pair in self._pair_index:
            raise LayoutError(
                f"disks {survivor} and {new_disk} already share (1-sharing)"
            )
        if len(self._slots[new_disk]) >= self.max_superchunks():
            raise CapacityError(f"disk {new_disk} is full of superchunks")
        updated = Superchunk(
            sc_id=sc_id,
            disk_a=survivor,
            disk_b=new_disk,
            slot_a=old.slot_on(survivor),
            slot_b=len(self._slots[new_disk]),
        )
        self._superchunks[sc_id] = updated
        self._slots[new_disk].append(sc_id)
        self._pair_index[pair] = sc_id
        self.mutations += 1
        return updated

    def restore_superchunk(self, previous: Superchunk, receiver: str) -> None:
        """Undo a :meth:`remirror` whose data copy failed mid-flight.

        The receiver gives the superchunk back and the pre-remirror
        record is reinstated, so the chunk returns to its singly-homed
        (orphan) state and a later recovery can re-plan it.  The old
        pair index entry is only restored when both old homes still hold
        the superchunk (the usual case -- one of them is a removed dead
        disk -- leaves no pair entry, matching post-``remove_disk``
        state).
        """
        sc_id = previous.sc_id
        current = self._superchunks.get(sc_id)
        if current is None:
            raise LayoutError(f"unknown superchunk {sc_id}")
        self._pair_index.pop(current.disks, None)
        slots = self._slots.get(receiver)
        if slots is not None and sc_id in slots:
            slots.remove(sc_id)
        self._superchunks[sc_id] = previous
        if all(self.holds(d, sc_id) for d in previous.disks):
            self._pair_index[previous.disks] = sc_id
        self.mutations += 1

    def rehome(self, sc_id: int, disk_a: str, disk_b: str) -> Superchunk:
        """Re-create a fully-orphaned superchunk on a fresh disk pair.

        Used after a double failure destroyed both homes of the shared
        superchunk: the reconstructed content is placed on a new legal
        pair.  All invariants re-checked.
        """
        old = self.superchunk(sc_id)
        if any(self.holds(d, sc_id) for d in old.disks):
            raise LayoutError(
                f"superchunk {sc_id} still has a live home; use remirror"
            )
        if disk_a == disk_b:
            raise LayoutError("superchunk mirrors must be distinct disks")
        if self._same_domain(disk_a, disk_b):
            raise LayoutError(
                f"{disk_a} and {disk_b} share failure domain "
                f"{self.domain_of(disk_a)!r}"
            )
        for disk in (disk_a, disk_b):
            if disk not in self._slots:
                raise LayoutError(f"unknown disk {disk}")
            if len(self._slots[disk]) >= self.max_superchunks():
                raise CapacityError(f"disk {disk} is full of superchunks")
        pair = frozenset((disk_a, disk_b))
        if pair in self._pair_index:
            raise LayoutError(
                f"disks {disk_a} and {disk_b} already share (1-sharing)"
            )
        updated = Superchunk(
            sc_id=sc_id,
            disk_a=disk_a,
            disk_b=disk_b,
            slot_a=len(self._slots[disk_a]),
            slot_b=len(self._slots[disk_b]),
        )
        self._superchunks[sc_id] = updated
        self._slots[disk_a].append(sc_id)
        self._slots[disk_b].append(sc_id)
        self._pair_index[pair] = sc_id
        self.mutations += 1
        return updated

    # ------------------------------------------------------------------
    # Verification and bounds.
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Re-check every invariant from scratch; raises on violation."""
        seen_pairs: Set[FrozenSet[str]] = set()
        for sc in self._superchunks.values():
            # Homes are the named disks that *hold* the copy: a removed
            # disk that rejoined empty is named but holds nothing, and
            # the superchunk is singly-homed until it is remirrored.
            live = [d for d in (sc.disk_a, sc.disk_b) if self.holds(d, sc.sc_id)]
            if len(set(live)) != len(live):
                raise LayoutError(f"superchunk {sc.sc_id} mirrored onto one disk")
            if len(live) == 2:
                pair = sc.disks
                if pair in seen_pairs:
                    raise LayoutError(
                        f"1-sharing violated: {sorted(pair)} share two superchunks"
                    )
                seen_pairs.add(pair)
                if self._same_domain(*sorted(pair)):
                    raise LayoutError(
                        f"superchunk {sc.sc_id} mirrored within one failure domain"
                    )
            for disk in live:
                slot = sc.slot_on(disk)
                slots = self._slots[disk]
                if slot >= len(slots) or slots[slot] != sc.sc_id:
                    raise LayoutError(
                        f"slot table corrupt: disk {disk} slot {slot}"
                    )
        # Note: we do not re-check the N-1 per-disk bound here.  It is an
        # *allocation-time* constraint; after a failure shrinks N, the
        # surviving disks may transiently hold up to old-N minus one
        # superchunks until recovery rearranges them.

    @property
    def is_fully_mirrored(self) -> bool:
        """True when every superchunk currently has both copies."""
        return all(self.is_mirrored(sc) for sc in self._superchunks.values())

    @staticmethod
    def max_total_superchunks(num_disks: int) -> int:
        """The paper's bound: at most N(N-1) superchunk *copies* / 2 pairs.

        Each disk holds at most N-1 superchunks and each superchunk
        occupies two disks, so the system holds at most N(N-1)/2 distinct
        superchunks.
        """
        return num_disks * (num_disks - 1) // 2

    @staticmethod
    def max_after_failures(num_disks: int, failures: int) -> int:
        """Distinct superchunks re-arrangeable after ``failures`` losses."""
        n = num_disks - failures
        return max(n * (n - 1) // 2, 0)

    def min_superchunk_size(self, disk_capacity: int) -> int:
        """Minimal superchunk size so a disk's capacity fits in N-1 chunks."""
        denom = len(self._disks) - 1
        if denom <= 0:
            raise LayoutError("need at least two disks")
        return -(-disk_capacity // denom)  # ceiling division

    # ------------------------------------------------------------------
    # Rendering (Fig. 2 / Fig. 3 style).
    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII table: columns are disks, rows are slots (cf. Fig. 3)."""
        disks = self._disks
        depth = max((len(self._slots[d]) for d in disks), default=0)
        header = "      " + " ".join(f"{d:>5}" for d in disks)
        lines = [header]
        for row in range(depth):
            cells = []
            for disk in disks:
                slots = self._slots[disk]
                cells.append(f"{slots[row]:>5}" if row < len(slots) else "    .")
            lines.append(f"S{row:<4} " + " ".join(cells))
        return "\n".join(lines)


def domain_aware_layout(
    domains: Dict[str, str],
    superchunks_per_disk: int,
    spec: Optional[LayoutSpec] = None,
) -> Layout:
    """Build a layout over multi-disk servers (or racks).

    ``domains`` maps every disk to its failure domain.  Pairing is
    greedy: the emptiest disk pairs with the emptiest legal disk in a
    *different* domain, which keeps load even and guarantees that a
    whole-domain failure (the paper's 12-disks-per-server example) never
    destroys a superchunk -- every copy it takes down has a live mirror
    elsewhere, so recovery is pure re-replication with no reconstruction.
    """
    if superchunks_per_disk < 1:
        raise LayoutError("need at least one superchunk per disk")
    num_domains = len(set(domains.values()))
    if num_domains < 2:
        raise LayoutError("domain-aware layout needs at least two domains")
    layout = Layout(sorted(domains), spec, domains=domains)

    def fill(disk: str) -> int:
        return len(layout.superchunks_of(disk))

    progress = True
    while progress:
        progress = False
        pending = sorted(
            (d for d in layout.disks if fill(d) < superchunks_per_disk),
            key=lambda d: (fill(d), d),
        )
        for disk in pending:
            partners = sorted(
                (p for p in layout.disks if layout.can_pair(disk, p)),
                key=lambda p: (fill(p), p),
            )
            partner = next(
                (p for p in partners if fill(p) < superchunks_per_disk), None
            )
            if partner is None:
                continue
            layout.add_superchunk(disk, partner)
            progress = True
    layout.verify()
    shortfall = [
        d for d in layout.disks if fill(d) < superchunks_per_disk
    ]
    if shortfall:
        raise CapacityError(
            f"could not reach {superchunks_per_disk} superchunks on {shortfall}; "
            "add disks or domains"
        )
    return layout


def rotational_layout(
    num_disks: int,
    superchunks_per_disk: Optional[int] = None,
    spec: Optional[LayoutSpec] = None,
    disk_names: Optional[Sequence[str]] = None,
) -> Layout:
    """Build the paper's Fig. 3 construction for ``num_disks`` disks.

    Rows come in pairs: the 2i-th row repeats the (2i-1)-th row shifted by
    ``i`` columns, so row-pair ``i`` pairs every disk with the disk ``i``
    columns away.  Using each shift ``i`` at most once keeps 1-sharing,
    and distinct shifts ``1..floor((N-1)/2)`` give every disk up to
    ``N-1`` superchunks (for even N the final shift ``N/2`` contributes a
    half row, since a full row would pair each opposite-disk couple
    twice).
    """
    if num_disks < 2:
        raise LayoutError("a RAIDP layout needs at least two disks")
    names = list(disk_names) if disk_names is not None else [f"d{i}" for i in range(num_disks)]
    if len(names) != num_disks:
        raise LayoutError("disk_names length must equal num_disks")
    layout = Layout(names, spec)
    target = superchunks_per_disk if superchunks_per_disk is not None else num_disks - 1
    if target > num_disks - 1:
        raise CapacityError(
            f"at most {num_disks - 1} superchunks per disk with {num_disks} disks"
        )
    placed = {name: 0 for name in names}
    max_shift = num_disks // 2
    for shift in range(1, max_shift + 1):
        if all(count >= target for count in placed.values()):
            break
        half_row = (num_disks % 2 == 0) and (shift == num_disks // 2)
        columns = range(num_disks // 2) if half_row else range(num_disks)
        for col in columns:
            a = names[col]
            b = names[(col + shift) % num_disks]
            if placed[a] >= target or placed[b] >= target:
                continue
            if not layout.can_pair(a, b):
                continue
            layout.add_superchunk(a, b)
            placed[a] += 1
            placed[b] += 1
    layout.verify()
    return layout
