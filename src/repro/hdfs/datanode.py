"""DataNode: block storage and the packet/accumulated write paths.

A DataNode owns one simulated server node (and its primary disk), an
extent-allocating local filesystem, and an in-memory content store of
block payloads (real bytes or symbolic tokens, see :mod:`repro.storage`).

Stock HDFS streams a write (paper §5 and §6.1): packets are written to
disk as they arrive.  The local filesystem's extent allocator serializes
concurrent writers, so the disk streams sequentially; packets are
batched into ``io_batch`` sized disk I/Os (pure event-count reduction --
the allocation pattern, and thus fragmentation and seeks, is preserved
at batch granularity).

Subclasses (RAIDP's DataNode in :mod:`repro.core.node`) override the
block-file creation and the write hook to add superchunk placement,
parity maintenance, journaling and the optimized accumulated path.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro import units
from repro.errors import BlockMissingError, DfsError
from repro.hdfs.block import Block, BlockLocations
from repro.hdfs.config import PIPELINE_PROCESS_RATE, DfsConfig
from repro.hdfs.localfs import LocalFs
from repro.sim.disk import Disk
from repro.sim.engine import Event, Simulator
from repro.sim.node import Node
from repro.storage.payload import ContentFactory, Payload
from repro.sim.snapshot import InlineState


class DataNode(InlineState):
    """One storage server in the DFS."""

    #: Disk I/O granularity for the streamed write path: the page cache
    #: coalesces 64 KB packets into writeback-sized runs before they hit
    #: the disk (also keeps the simulated event count sane).
    DEFAULT_IO_BATCH = 16 * units.MiB

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: DfsConfig,
        factory: ContentFactory,
        fs_policy: str = "extent",
        io_batch: Optional[int] = None,
        disk: Optional[Disk] = None,
        name: Optional[str] = None,
    ) -> None:
        """``disk``/``name`` support multi-disk servers: one DataNode per
        disk, all sharing the server's node (CPU, NICs)."""
        self.sim = sim
        self.node = node
        self.config = config
        self.factory = factory
        self._disk = disk if disk is not None else node.primary_disk
        self._name = name if name is not None else node.name
        self.fs = LocalFs(sim, self._disk, policy=fs_policy)
        self.io_batch = io_batch or self.DEFAULT_IO_BATCH
        self._contents: Dict[str, Payload] = {}
        self._versions: Dict[str, int] = {}
        self.alive = True
        self.stats_blocks_written = 0
        self.stats_blocks_read = 0

    @property
    def name(self) -> str:
        return self._name

    @property
    def disk(self) -> Disk:
        return self._disk

    # ------------------------------------------------------------------
    # Content store (the data plane).
    # ------------------------------------------------------------------
    def store_content(self, block_name: str, payload: Payload, version: int) -> None:
        self._contents[block_name] = payload
        self._versions[block_name] = version

    def content_of(self, block_name: str) -> Payload:
        try:
            return self._contents[block_name]
        except KeyError:
            raise BlockMissingError(
                f"{self.name} holds no content for {block_name}"
            ) from None

    def version_of(self, block_name: str) -> int:
        return self._versions.get(block_name, 0)

    def has_block(self, block_name: str) -> bool:
        return block_name in self._contents

    def block_report(self) -> List[str]:
        """All DFS block names this replica actually holds (sorted)."""
        return sorted(self._contents)

    def drop_content(self, block_name: str) -> None:
        self._contents.pop(block_name, None)
        self._versions.pop(block_name, None)

    def purge_block(self, block_name: str) -> None:
        """Drop one replica without a locations record (a remirror's
        rollback when a stacked failure hits mid-copy).  Charges no
        simulated time, like HDFS's lazy deletion."""
        self.drop_content(block_name)
        if self.fs.exists(block_name):
            self.fs.delete(block_name)

    # ------------------------------------------------------------------
    # Block file lifecycle hooks (overridden by RAIDP).
    # ------------------------------------------------------------------
    def create_block_file(self, locations: BlockLocations) -> None:
        """Create the local file that will hold the block."""
        name = locations.block.name
        if not self.fs.exists(name):
            self.fs.create(name)

    def delete_block(self, locations: BlockLocations) -> None:
        """Remove a replica (metadata + local file)."""
        name = locations.block.name
        self.drop_content(name)
        if self.fs.exists(name):
            self.fs.delete(name)

    # ------------------------------------------------------------------
    # Write paths (process bodies).
    # ------------------------------------------------------------------
    def write_block(
        self,
        locations: BlockLocations,
        payload: Payload,
        inbound: Optional[Event] = None,
    ) -> Generator:
        """Receive and persist one block replica.

        ``inbound`` is the network-arrival event (None for a local
        write).
        """
        if not self.alive:
            raise DfsError(f"write to dead datanode {self.name}")
        trace = self.sim.trace
        t0 = self.sim.now
        self.create_block_file(locations)
        yield from self._write_replica(locations, payload, inbound)
        self.stats_blocks_written += 1
        if trace.enabled:
            trace.complete(
                "dn", "write", t0, self.sim.now,
                dn=self.name, block=locations.block.name,
                bytes=locations.block.size,
            )
        return None

    def _process_stream(self, nbytes: int) -> Generator:
        """Per-replica packet handling + checksum charge."""
        yield self.sim.timeout(nbytes / PIPELINE_PROCESS_RATE)
        return None

    def _write_replica(
        self,
        locations: BlockLocations,
        payload: Payload,
        inbound: Optional[Event],
    ) -> Generator:
        """Packet-streamed write, synced when the block closes (hookable)."""
        block = locations.block
        offset = 0
        while offset < block.size:
            run = min(self.io_batch, block.size - offset)
            yield from self._process_stream(run)
            yield from self.fs.write(block.name, offset, run)
            offset += run
        if inbound is not None:
            yield inbound
        yield from self.fs.sync()
        self.store_content(block.name, payload, locations.version)
        return None

    # ------------------------------------------------------------------
    # In-place updates (paper §8 future work; RAIDP-only).
    # ------------------------------------------------------------------
    def update_block_range(
        self, locations: BlockLocations, block_offset: int, nbytes: int
    ) -> Generator:
        """Rewrite a byte range of an existing block in place.

        Stock HDFS is append-only (paper §5): updating means deleting
        the file and rewriting it.  Only the RAIDP DataNode overrides
        this with a real sub-block read-modify-write path.
        """
        raise DfsError(
            f"{self.name}: HDFS blocks are append-only; delete and rewrite "
            "(in-place updates are a RAIDP extension)"
        )
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Read path.
    # ------------------------------------------------------------------
    def read_block(self, locations: BlockLocations) -> Generator:
        """Read a replica from disk; returns its payload."""
        if not self.alive:
            raise DfsError(f"read from dead datanode {self.name}")
        trace = self.sim.trace
        t0 = self.sim.now
        block = locations.block
        payload = self.content_of(block.name)
        yield from self.fs.read(block.name, 0, block.size)
        yield from self._process_stream(block.size)  # checksum verification
        self.stats_blocks_read += 1
        if trace.enabled:
            trace.complete(
                "dn", "read", t0, self.sim.now,
                dn=self.name, block=block.name, bytes=block.size,
            )
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DataNode {self.name} blocks={len(self._contents)}>"
