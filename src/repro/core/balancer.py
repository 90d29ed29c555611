"""Background load balancer: spread blocks evenly across disks (§3.3).

The paper stresses that recovery and steady-state health both depend on
balanced disks: "Keeping disks load balanced would prevent a situation
where some disks become hotspots."  The placement policy balances new
writes, but deletions, recoveries, and workload skew still drift the
fleet; :class:`Balancer` is the background process that moves whole
blocks -- both replicas together, parity maintained on all four affected
Lstors -- from the hottest disks to under-filled superchunk pairs.

A move is a miniature migration: read the block at a current replica,
ship it to the two new homes, install (which folds it into their
parities), then drop the old replicas (whose parity removal is the usual
deferred-to-idle work).  Every step uses the same primitives as
recovery, so all invariants hold mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.cluster import RaidpCluster
from repro.errors import PlacementError
from repro.hdfs.block import BlockLocations


@dataclass
class BalanceReport:
    """What one balancing pass did."""

    moves: List[Tuple[str, int, int]] = field(default_factory=list)  # (block, from_sc, to_sc)
    imbalance_before: float = 0.0
    imbalance_after: float = 0.0
    duration: float = 0.0


class Balancer:
    """Moves blocks from hot disks to cold superchunk pairs."""

    def __init__(self, dfs: RaidpCluster, threshold: float = 0.25) -> None:
        """``threshold``: stop once (max - min) / mean disk load falls
        at or below this."""
        self.dfs = dfs
        self.sim = dfs.sim
        self.threshold = threshold

    # ------------------------------------------------------------------
    # Measurement.
    # ------------------------------------------------------------------
    def disk_loads(self) -> Dict[str, int]:
        return {
            dn.name: self.dfs.map.load_of_disk(dn.name)
            for dn in self.dfs.datanodes
            if dn.alive
        }

    def imbalance(self) -> float:
        loads = list(self.disk_loads().values())
        mean = sum(loads) / len(loads) if loads else 0.0
        if mean == 0:
            return 0.0
        return (max(loads) - min(loads)) / mean

    # ------------------------------------------------------------------
    # Planning.
    # ------------------------------------------------------------------
    def _pick_move(self) -> Optional[Tuple[BlockLocations, int]]:
        """(block to move, target superchunk) or None if nothing helps."""
        loads = self.disk_loads()
        if not loads:
            return None
        hot = max(sorted(loads), key=lambda d: loads[d])
        layout = self.dfs.layout
        # Walk the hot disk's blocks, fullest superchunk first, and find
        # each a target pair *disjoint* from the block's current homes
        # (a shared home would have to hold both copies mid-move).
        for sc_id in sorted(
            layout.superchunks_of(hot),
            key=lambda s: -self.dfs.map.used_slots(s),
        ):
            for _slot, block_name in sorted(self.dfs.map.blocks_in(sc_id).items()):
                locations = self.dfs.namenode.locate_block_by_name(block_name)
                if locations is None:
                    continue
                target = self._best_target(set(locations.datanodes), loads, hot)
                if target is not None:
                    return locations, target
        return None

    def _best_target(
        self, old_homes: set, loads: Dict[str, int], hot: str
    ) -> Optional[int]:
        """Coolest unfrozen superchunk with a free slot, avoiding the
        block's current homes entirely."""
        best_target = None
        best_pressure = None
        for sc_id, sc in self.dfs.layout.superchunks.items():
            if self.dfs.map.is_frozen(sc_id):
                continue
            if sc.disks & old_homes or self.dfs.map.free_slots(sc_id) == 0:
                continue
            if any(d not in loads for d in sc.disks):
                continue  # a home is dead
            pressure = max(loads[d] for d in sc.disks)
            if pressure >= loads[hot]:
                continue  # would not improve the hottest disk
            if best_pressure is None or pressure < best_pressure:
                best_pressure = pressure
                best_target = sc_id
        return best_target

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def move_block(self, locations: BlockLocations, target_sc: int) -> Generator:
        """Migrate one block (both replicas) to ``target_sc``."""
        dfs = self.dfs
        block = locations.block
        old = BlockLocations(
            block=block,
            datanodes=list(locations.datanodes),
            sc_id=locations.sc_id,
            slot=locations.slot,
            version=locations.version,
        )
        source = dfs.datanode_by_name(old.datanodes[0])
        payload = source.content_of(block.name)
        target = dfs.layout.superchunk(target_sc)
        new_slot = dfs.map.allocate_slot(target_sc, block.name)
        locations.sc_id = target_sc
        locations.slot = new_slot
        locations.datanodes = sorted(target.disks)
        # Ship to both new homes (read once at the source, two flows).
        yield from source.fs.read(block.name, 0, block.size)
        flows = [
            dfs.switch.transfer(
                source.node.primary_nic,
                dfs.datanode_by_name(home).node.primary_nic,
                block.size,
            )
            for home in locations.datanodes
            if dfs.datanode_by_name(home).node is not source.node
        ]
        if flows:
            yield self.sim.all_of(flows)
        for home in locations.datanodes:
            datanode = dfs.datanode_by_name(home)
            datanode.install_recovered_block(locations, payload)
            yield from datanode.fs.write(block.name, 0, block.size)
        # Drop the old replicas; their parity removal is deferred-to-idle.
        for home in old.datanodes:
            datanode = dfs.datanode_by_name(home)
            if datanode.alive:
                datanode.delete_block(old)
        if old.sc_id is not None and old.slot is not None:
            dfs.map.release_slot(old.sc_id, old.slot)
        return None

    def run_pass(self, max_moves: int = 32) -> Generator:
        """Process body: move blocks until balanced or out of moves."""
        report = BalanceReport(imbalance_before=self.imbalance())
        started = self.sim.now
        for _ in range(max_moves):
            if self.imbalance() <= self.threshold:
                break
            pick = self._pick_move()
            if pick is None:
                break
            locations, target_sc = pick
            from_sc = locations.sc_id
            yield from self.move_block(locations, target_sc)
            report.moves.append((locations.block.name, from_sc, target_sc))
        report.imbalance_after = self.imbalance()
        report.duration = self.sim.now - started
        return report

    def balance(self, max_moves: int = 32) -> BalanceReport:
        """Drive a balancing pass to completion (convenience wrapper)."""
        return self.sim.run_process(self.run_pass(max_moves), name="balancer")
