"""NameNode: namespace, block map, placement, and failure bookkeeping.

The NameNode is pure metadata -- it never touches simulated time.  All
data-plane work (packet pipelines, disk I/O) happens in the DataNodes and
clients; the NameNode answers allocation and lookup RPCs synchronously,
matching HDFS's in-memory namespace design.

Placement is a strategy object so RAIDP can substitute its
pair-with-a-common-superchunk policy (paper §5) without touching the
NameNode itself.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import TYPE_CHECKING, DefaultDict, Dict, Iterable, List, Mapping, Optional

from repro.errors import (
    DfsError,
    FileExistsInDfsError,
    FileNotFoundInDfsError,
    PlacementError,
)
from repro.hdfs.block import Block, BlockLocations
from repro.hdfs.config import DfsConfig
from repro.sim.snapshot import InlineState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hdfs.datanode import DataNode


def healthy_datanode(datanode) -> bool:
    """The full health predicate: registered alive, disk serving, host up.

    Placement and replica choice must agree on this -- a DataNode whose
    disk already died but whose heartbeat staleness has not yet been
    declared is *not* a valid target, even though its metadata still says
    ``alive``.
    """
    return datanode.alive and not datanode.disk.failed and datanode.node.alive


class PlacementPolicy(InlineState):
    """Chooses the replica set for a new block.

    ``datanodes`` is the NameNode's registry, name -> DataNode in
    registration order; a policy reads it and never copies it whole.
    """

    def choose_targets(
        self,
        block: Block,
        writer: Optional[str],
        datanodes: Mapping[str, "DataNode"],
    ) -> BlockLocations:
        raise NotImplementedError


def _shuffle(rng: random.Random, x: List[str]) -> None:
    """``rng.shuffle(x)``, with the per-element ``_randbelow`` call inlined.

    The same Fisher-Yates swaps from the same ``getrandbits`` draws
    (rejection sampling at ``n.bit_length()`` bits), so the list and the
    generator's state end exactly as ``random.Random.shuffle`` leaves
    them; a Python-level call per element is what it saves.
    """
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


class ReplicationPlacement(PlacementPolicy):
    """Stock HDFS-style placement: writer-local first, then load-balanced
    random peers.

    HDFS balances replicas by remaining space; we approximate with the
    replica count already placed on each node, breaking ties with a
    seeded shuffle.  Deterministic given the seed, as everything in the
    reproduction must be.  (The residual imbalance relative to RAIDP's
    superchunk-slot placement is what makes RAIDP's "only superchunks"
    bar marginally beat HDFS-2 in Fig. 8.)

    Each call reads every registered DataNode's health once: the number
    of healthy ones sets the shuffles' lengths and so the RNG draws, so
    this pass is the floor of any bit-exact version of the policy.
    """

    def __init__(self, replication: int, seed: int = 0xDA7A) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self._rng = random.Random(seed)
        #: DataNode name -> replicas placed there (0 until the first).
        self._placed: DefaultDict[str, int] = defaultdict(int)

    def choose_targets(
        self,
        block: Block,
        writer: Optional[str],
        datanodes: Mapping[str, "DataNode"],
    ) -> BlockLocations:
        remaining = [name for name, dn in datanodes.items() if healthy_datanode(dn)]
        if len(remaining) < self.replication:
            raise PlacementError(
                f"need {self.replication} live datanodes, have {len(remaining)}"
            )
        chosen: List[str] = []
        if writer is not None and writer in remaining:
            remaining.remove(writer)
            chosen.append(writer)
        _shuffle(self._rng, remaining)  # random tie-break, then least-loaded
        remaining.sort(key=self._placed.__getitem__)
        # HDFS picks randomly among under-loaded candidates rather than
        # strictly least-loaded, leaving the marginal imbalance the paper
        # observes; sample from the bottom three quarters.
        del remaining[max(3 * len(remaining) // 4, self.replication) :]
        _shuffle(self._rng, remaining)
        chosen.extend(remaining[: self.replication - len(chosen)])
        for name in chosen:
            self._placed[name] += 1
        return BlockLocations(block=block, datanodes=chosen)


class NameNode(InlineState):
    """The metadata master: files, blocks, locations, liveness."""

    def __init__(self, config: DfsConfig, placement: PlacementPolicy) -> None:
        self.config = config
        self.placement = placement
        self._datanodes: Dict[str, "DataNode"] = {}
        self._files: Dict[str, List[Block]] = {}
        self._blocks: Dict[int, BlockLocations] = {}
        #: block name -> the same records (names are unique per block id).
        self._blocks_by_name: Dict[str, BlockLocations] = {}
        self._next_block_id = 0
        #: (block name, dropped replica names) per pipeline recovery the
        #: clients reported -- the short blocks awaiting re-replication.
        self.pipeline_failures: List[tuple] = []

    # ------------------------------------------------------------------
    # Cluster membership.
    # ------------------------------------------------------------------
    def register_datanode(self, datanode: "DataNode") -> None:
        if datanode.name in self._datanodes:
            raise DfsError(f"datanode {datanode.name} registered twice")
        self._datanodes[datanode.name] = datanode

    def datanode(self, name: str) -> "DataNode":
        try:
            return self._datanodes[name]
        except KeyError:
            raise DfsError(f"unknown datanode {name}") from None

    # ------------------------------------------------------------------
    # Namespace.
    # ------------------------------------------------------------------
    def create_file(self, path: str) -> None:
        if path in self._files:
            raise FileExistsInDfsError(path)
        self._files[path] = []

    def file_exists(self, path: str) -> bool:
        return path in self._files

    def file_blocks(self, path: str) -> List[Block]:
        try:
            return list(self._files[path])
        except KeyError:
            raise FileNotFoundInDfsError(path) from None

    def file_size(self, path: str) -> int:
        return sum(b.size for b in self.file_blocks(path))

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def delete_file(self, path: str) -> List[BlockLocations]:
        """Drop a file; returns the location records of its ex-blocks.

        The caller (client) is responsible for telling the datanodes to
        delete the replicas -- matching HDFS, where deletion is lazy.
        """
        blocks = self.file_blocks(path)
        del self._files[path]
        records = []
        release = getattr(self.placement, "release", None)
        for block in blocks:
            record = self._blocks.pop(block.block_id)
            del self._blocks_by_name[block.name]
            if release is not None:
                release(record)  # free the superchunk slot (RAIDP)
            records.append(record)
        return records

    # ------------------------------------------------------------------
    # Block allocation and lookup.
    # ------------------------------------------------------------------
    def allocate_block(
        self, path: str, size: int, writer: Optional[str] = None
    ) -> BlockLocations:
        if path not in self._files:
            raise FileNotFoundInDfsError(path)
        if size <= 0 or size > self.config.block_size:
            raise DfsError(f"bad block size {size}")
        block = Block(
            block_id=self._next_block_id,
            path=path,
            index=len(self._files[path]),
            size=size,
        )
        self._next_block_id += 1
        locations = self.placement.choose_targets(block, writer, self._datanodes)
        self._files[path].append(block)
        self._blocks[block.block_id] = locations
        self._blocks_by_name[block.name] = locations
        return locations

    def locate_block(self, block_id: int) -> BlockLocations:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise DfsError(f"unknown block {block_id}") from None

    def locate_block_by_name(self, block_name: str) -> Optional[BlockLocations]:
        """The record of the block stored under ``block_name``, if any."""
        return self._blocks_by_name.get(block_name)

    def all_blocks(self) -> List[BlockLocations]:
        return list(self._blocks.values())

    # ------------------------------------------------------------------
    # Failure bookkeeping.
    # ------------------------------------------------------------------
    def mark_datanode_dead(self, name: str) -> List[BlockLocations]:
        """Record a datanode loss; returns the now-under-replicated blocks."""
        datanode = self.datanode(name)
        datanode.alive = False
        affected = []
        for locations in self._blocks.values():
            if name in locations.datanodes:
                locations.remove_datanode(name)
                affected.append(locations)
        return affected

    def note_pipeline_failure(
        self, locations: BlockLocations, failed_names: Iterable[str]
    ) -> None:
        """A client completed a block short: drop the dead pipeline
        members from the block's locations (HDFS pipeline recovery).

        The block then shows up in :meth:`under_replicated` for the
        recovery machinery; the failed DataNodes themselves are left for
        the heartbeat detector to declare dead (a single slow write must
        not evict a whole node).
        """
        dropped = []
        for name in failed_names:
            if name in locations.datanodes:
                locations.remove_datanode(name)
                dropped.append(name)
        self.pipeline_failures.append((locations.block.name, tuple(dropped)))

    def under_replicated(self) -> List[BlockLocations]:
        return [
            loc
            for loc in self._blocks.values()
            if loc.replica_count < self.config.replication
        ]

    def lost_blocks(self) -> List[BlockLocations]:
        """Blocks with zero live replicas (recoverable only via Lstors)."""
        return [loc for loc in self._blocks.values() if loc.replica_count == 0]
