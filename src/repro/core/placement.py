"""RAIDP block placement (paper §5, "Superimposing Superchunks on HDFS").

The NameNode may only assign a new block to a *pair* of DataNodes that
share a superchunk, and the block gets a fixed slot inside that
superchunk (blocks are sequentially assigned to the preallocated files of
the superchunk directory).  :class:`SuperchunkMap` tracks slot occupancy;
:class:`RaidpPlacement` is the plug-in placement policy.

Placement prefers pairs containing the writer (HDFS's writer-local first
replica) and balances load by picking the least-full eligible superchunk.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.layout import Layout, LayoutSpec, Superchunk
from repro.errors import CapacityError, PlacementError
from repro.hdfs.block import Block, BlockLocations
from repro.hdfs.namenode import PlacementPolicy, healthy_datanode
from repro.sim.snapshot import InlineState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hdfs.datanode import DataNode


class SuperchunkMap(InlineState):
    """Slot occupancy of every superchunk in the layout."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self.slots_per_superchunk = layout.spec.blocks_per_superchunk
        # sc_id -> slot -> block name (occupied slots only).
        self._occupancy: Dict[int, Dict[int, str]] = {
            sc_id: {} for sc_id in layout.superchunks
        }
        # Superchunks under recovery: writes are diverted away from them
        # (paper §3.4) until the recovery completes.
        self._frozen: set = set()
        # disk -> occupied slots over the superchunks it holds, for the
        # disks asked about since the layout's last mutation; slot
        # claims and releases keep it current (see load_of_disk).
        self._load: Dict[str, int] = {}
        self._load_epoch = layout.mutations

    # ------------------------------------------------------------------
    # Recovery-time write diversion (paper §3.4).
    # ------------------------------------------------------------------
    def freeze(self, sc_id: int) -> None:
        self._frozen.add(sc_id)

    def unfreeze(self, sc_id: int) -> None:
        self._frozen.discard(sc_id)

    def is_frozen(self, sc_id: int) -> bool:
        return sc_id in self._frozen

    def register_superchunk(self, sc_id: int) -> None:
        """Track a superchunk created after construction (recovery)."""
        self._occupancy.setdefault(sc_id, {})

    def used_slots(self, sc_id: int) -> int:
        return len(self._occupancy[sc_id])

    def free_slots(self, sc_id: int) -> int:
        return self.slots_per_superchunk - self.used_slots(sc_id)

    def blocks_in(self, sc_id: int) -> Dict[int, str]:
        """slot -> block name for every occupied slot."""
        return dict(self._occupancy[sc_id])

    def allocate_slot(self, sc_id: int, block_name: str) -> int:
        """Claim the lowest free slot (sequential file assignment)."""
        occupancy = self._occupancy[sc_id]
        for slot in range(self.slots_per_superchunk):
            if slot not in occupancy:
                occupancy[slot] = block_name
                self._count(sc_id, 1)
                return slot
        raise CapacityError(f"superchunk {sc_id} has no free slots")

    def release_slot(self, sc_id: int, slot: int) -> None:
        if self._occupancy[sc_id].pop(slot, None) is not None:
            self._count(sc_id, -1)

    def load_of_disk(self, disk: str) -> int:
        """Occupied slots across all superchunks on ``disk`` (load proxy).

        Summed over the disk's slot table once per layout mutation, then
        tallied: O(1) per call while the layout holds still.
        """
        load = self._tally()
        value = load.get(disk)
        if value is None:
            value = load[disk] = sum(
                self.used_slots(sc_id) for sc_id in self.layout.superchunks_of(disk)
            )
        return value

    def _tally(self) -> Dict[str, int]:
        """The load tally, emptied if the layout mutated since it was kept."""
        if self._load_epoch != self.layout.mutations:
            self._load_epoch = self.layout.mutations
            self._load.clear()
        return self._load

    def _count(self, sc_id: int, delta: int) -> None:
        # Only disks that *hold* the superchunk carry its slots: a disk
        # that rejoined empty is still named by the records it lost.
        load = self._tally()
        if load:
            sc = self.layout.superchunk(sc_id)
            for disk in (sc.disk_a, sc.disk_b):
                if disk in load and self.layout.holds(disk, sc_id):
                    load[disk] += delta


class RaidpPlacement(PlacementPolicy):
    """Placement restricted to superchunk-sharing DataNode pairs.

    Disk ids in the layout are DataNode names.  The writer is a server
    name: on one-disk-per-node clusters (the paper's evaluation) that is
    the disk itself, on multi-disk servers it is the failure domain of
    the server's per-disk DataNodes.
    """

    def __init__(
        self,
        layout: Layout,
        superchunk_map: SuperchunkMap,
        seed: int = 0xA1D9,
    ) -> None:
        self.layout = layout
        self.map = superchunk_map
        self._rng = random.Random(seed)

    def choose_targets(
        self,
        block: Block,
        writer: Optional[str],
        datanodes: Mapping[str, "DataNode"],
    ) -> BlockLocations:
        # The full health predicate: a disk that already died but has not
        # yet been declared dead by the heartbeat detector must not
        # receive new blocks.  Asked only of the candidates' disks, once
        # per disk per call.
        health: Dict[str, bool] = {}

        def alive(disk: str) -> bool:
            ok = health.get(disk)
            if ok is None:
                datanode = datanodes.get(disk)
                ok = health[disk] = datanode is not None and healthy_datanode(datanode)
            return ok

        pool = self._writer_local_superchunks(writer, alive)
        if not pool:
            pool = self._eligible_superchunks(alive)
        if not pool:
            raise PlacementError(
                "no superchunk with free slots spans two live datanodes"
            )
        # Balance by *disk* load (the busier disk of each pair), so every
        # spindle receives an even share of the write stream; ties break
        # by superchunk fullness, then by the seeded RNG.  One pass scores
        # each candidate once and keeps the tied list in pool order.
        load_of = self.map.load_of_disk
        best: Optional[Tuple[int, int, int]] = None
        tied: List[int] = []
        for sc in pool:
            a, b = self._pair(sc)
            load_a, load_b = load_of(a), load_of(b)
            used = self.map.used_slots(sc)
            weight = (load_a, load_b, used) if load_a >= load_b else (load_b, load_a, used)
            if best is None or weight < best:
                best, tied = weight, [sc]
            elif weight == best:
                tied.append(sc)
        sc_id = self._rng.choice(tied)
        slot = self.map.allocate_slot(sc_id, block.name)
        pair = list(self._pair(sc_id))
        for index, disk in enumerate(pair):
            if self._is_local(disk, writer):
                pair.insert(0, pair.pop(index))
                break
        return BlockLocations(block=block, datanodes=pair, sc_id=sc_id, slot=slot)

    def _pair(self, sc_id: int) -> Tuple[str, str]:
        sc = self.layout.superchunk(sc_id)
        return sc.disk_a, sc.disk_b

    def _is_local(self, disk: str, writer: Optional[str]) -> bool:
        return writer is not None and (
            disk == writer or self.layout.domain_of(disk) == writer
        )

    def _writer_local_superchunks(
        self, writer: Optional[str], alive: Callable[[str], bool]
    ) -> List[int]:
        """Eligible superchunks with a copy on the writer's own disk(s).

        Eligibility requires both named disks to hold the superchunk, so
        the writer's slot tables index every candidate: the cost is the
        superchunks per disk, not the cluster's.
        """
        if writer is None:
            return []
        layout = self.layout
        disks = layout.disks_in_domain(writer)
        if layout.has_disk(writer) and writer not in disks:
            disks.append(writer)
        local = {sc_id for disk in disks for sc_id in layout.superchunks_of(disk)}
        return sorted(
            sc_id for sc_id in local if self._eligible(layout.superchunk(sc_id), alive)
        )

    def _eligible_superchunks(self, alive: Callable[[str], bool]) -> List[int]:
        """Every eligible superchunk: the writer-agnostic full scan."""
        return sorted(
            sc.sc_id
            for sc in self.layout.superchunks.values()
            if self._eligible(sc, alive)
        )

    def _eligible(self, sc: Superchunk, alive: Callable[[str], bool]) -> bool:
        if self.map.is_frozen(sc.sc_id):
            return False  # under recovery: writes are diverted (§3.4)
        return (
            self.map.free_slots(sc.sc_id) > 0
            and alive(sc.disk_a)
            and alive(sc.disk_b)
            # Named is not held: a removed disk that rejoined empty is
            # still named by the superchunks it lost.
            and self.layout.is_mirrored(sc)
        )

    def release(self, locations: BlockLocations) -> None:
        """Return a deleted block's slot to the pool."""
        if locations.sc_id is not None and locations.slot is not None:
            self.map.release_slot(locations.sc_id, locations.slot)
