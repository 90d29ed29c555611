"""DFS client: pipelined block writes and replica-choice reads.

The client runs on a cluster node (Hadoop tasks are collocated with
DataNodes).  A file write proceeds block by block, as through one HDFS
output stream:

1. ask the NameNode for a block and its replica pipeline,
2. stream the block along the pipeline -- modeled as cut-through: the
   client->dn1, dn1->dn2, ... flows run concurrently, each full-block
   sized, so pipeline latency is the max hop time rather than the sum,
3. each DataNode persists its replica (streamed or accumulated path),
4. run the post-block hook (RAIDP's journal acknowledgment exchange).

Reads pick one replica per block -- the local one when present, else
seeded-random -- and overlap the replica's disk read with the network
transfer, approximating streaming.
"""

from __future__ import annotations

import random
import zlib
from typing import Generator, List, Optional

from repro.errors import BlockMissingError, DeviceError, DfsError, PlacementError
from repro.hdfs.block import BlockLocations
from repro.hdfs.config import DfsConfig
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode, healthy_datanode
from repro.sim.engine import Event, Simulator
from repro.sim.network import Switch
from repro.sim.node import Node
from repro.storage.payload import ContentFactory, Payload
from repro.sim.snapshot import InlineState


class DfsClient(InlineState):
    """A client bound to one node of the cluster."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        namenode: NameNode,
        switch: Switch,
        factory: ContentFactory,
        prefer_local_read: bool = False,
        seed: int = 0xC11E,
    ) -> None:
        # prefer_local_read defaults off: the paper's read benchmarks
        # observe a 50/50 replica choice (tasks are not data-local in
        # TestDFSIO's read phase), which is what produces Fig. 10's
        # nonzero read network traffic.
        self.sim = sim
        self.node = node
        self.namenode = namenode
        self.switch = switch
        self.factory = factory
        self.config = namenode.config
        self.prefer_local_read = prefer_local_read
        # Stable per-node seed (str.__hash__ is randomized per process).
        self._rng = random.Random(seed ^ zlib.crc32(node.name.encode()))
        #: Blocks completed short because a pipeline member died mid-write.
        self.stats_pipeline_recoveries = 0
        #: Read attempts that failed over to another replica.
        self.stats_read_failovers = 0

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def write_file(self, path: str, nbytes: int) -> Generator:
        """Create ``path`` and write ``nbytes`` of generated data."""
        if nbytes <= 0:
            raise DfsError("refusing to write an empty file")
        self.namenode.create_file(path)
        remaining = nbytes
        while remaining > 0:
            size = min(self.config.block_size, remaining)
            locations = yield from self._allocate_with_retry(path, size)
            yield from self.write_block(locations)
            remaining -= size
        return None

    def _allocate_with_retry(self, path: str, size: int) -> Generator:
        """Allocate a block, optionally retrying transient placement holes.

        During recovery every eligible superchunk may be frozen (write
        diversion, paper §3.4); with ``allocate_retries`` > 0 the client
        backs off and retries instead of failing the whole file write.
        """
        attempt = 0
        while True:
            try:
                return self.namenode.allocate_block(
                    path, size, writer=self.node.name
                )
            except PlacementError:
                if attempt >= self.config.allocate_retries:
                    raise
                attempt += 1
                yield self.sim.timeout(self.config.allocate_backoff * attempt)

    def rewrite_file(self, path: str) -> Generator:
        """Overwrite every block of an existing file in place.

        Used by the update-oriented workloads: block identities, placement
        and superchunk slots stay fixed; only the content version bumps,
        which on RAIDP forces the read-modify-write parity path.
        """
        for block in self.namenode.file_blocks(path):
            locations = self.namenode.locate_block(block.block_id)
            locations.version += 1
            yield from self.write_block(locations)
        return None

    def update_file_range(self, path: str, offset: int, nbytes: int) -> Generator:
        """Rewrite ``[offset, offset + nbytes)`` of ``path`` in place.

        An extension over stock HDFS (paper §8): supported only when the
        DataNodes implement a sub-block update path (RAIDP's do).  The
        update is applied per overlapping block on both replicas, with
        the usual journal acknowledgment; tiny control traffic aside, the
        network moves nothing -- the point of local parity.
        """
        if nbytes <= 0:
            raise DfsError("empty update range")
        end = offset + nbytes
        file_size = self.namenode.file_size(path)
        if end > file_size:
            raise DfsError(f"update past EOF of {path}: {end} > {file_size}")
        cursor = 0
        for block in self.namenode.file_blocks(path):
            block_start, block_end = cursor, cursor + block.size
            cursor = block_end
            lo, hi = max(offset, block_start), min(end, block_end)
            if lo >= hi:
                continue
            locations = self.namenode.locate_block(block.block_id)
            locations.version += 1
            targets = [self.namenode.datanode(n) for n in locations.datanodes]
            updates = [
                self.sim.process(
                    dn.update_block_range(locations, lo - block_start, hi - lo),
                    name=f"update:{block.name}@{dn.name}",
                )
                for dn in targets
            ]
            yield self.sim.all_of(updates)
        return None

    def write_block(self, locations: BlockLocations) -> Generator:
        """Drive one block through the replica pipeline.

        Survives a pipeline member dying mid-write (HDFS pipeline
        recovery): the dead target is dropped, the block completes on the
        surviving replicas, and the short block is reported to the
        NameNode so the re-replication machinery can top it up.  Only
        when *every* replica fails does the write itself fail.
        """
        block = locations.block
        payload = self.factory.make(block.name, locations.version, block.size)
        targets = [self.namenode.datanode(n) for n in locations.datanodes]
        if not targets:
            raise DfsError(f"block {block.name} has no targets")
        trace = self.sim.trace
        t0 = self.sim.now

        # Cut-through pipeline: one full-block flow per inter-node hop.
        inbound: List[Optional[Event]] = []
        upstream = self.node
        for datanode in targets:
            if datanode.node is upstream:
                inbound.append(None)  # local hop: no network transfer
            else:
                inbound.append(
                    self.switch.transfer(
                        upstream.primary_nic, datanode.node.primary_nic, block.size
                    )
                )
            upstream = datanode.node

        writes = [
            self.sim.process(
                datanode.write_block(locations, payload, inbound=arrival),
                name=f"write:{block.name}@{datanode.name}",
            )
            for datanode, arrival in zip(targets, inbound)
        ]
        # Wait on each replica write individually (rather than all_of,
        # which fails fast): a single member dying must not abort the
        # surviving writes, and every failure must be observed here.
        survivors: List[DataNode] = []
        failures: List[DataNode] = []
        last_error: Optional[BaseException] = None
        for datanode, proc in zip(targets, writes):
            try:
                yield proc
            except (DfsError, DeviceError) as exc:
                failures.append(datanode)
                last_error = exc
            else:
                survivors.append(datanode)
        if not survivors:
            raise DfsError(
                f"pipeline for block {block.name} lost every replica"
            ) from last_error
        if failures:
            self.stats_pipeline_recoveries += 1
            if trace.enabled:
                trace.instant(
                    "hdfs", "pipeline_recover", self.sim.now,
                    block=block.name, failed=[dn.name for dn in failures],
                )
            self.namenode.note_pipeline_failure(
                locations, [dn.name for dn in failures]
            )
            self._after_pipeline_failure(locations, survivors)
        yield from self.post_block_hook(locations, survivors)
        if trace.enabled:
            trace.complete(
                "hdfs", "write_block", t0, self.sim.now,
                block=block.name, bytes=block.size, replicas=len(targets),
            )
        return None

    def _after_pipeline_failure(
        self, locations: BlockLocations, survivors: List[DataNode]
    ) -> None:
        """Hook: tidy per-replica state after a short pipeline completes.

        A survivor may be waiting on an acknowledgment that the dead
        member will never send (RAIDP's journal protocol); nodes that
        implement :meth:`resolve_orphan_ack` get the chance to settle it.
        """
        for datanode in survivors:
            resolve = getattr(datanode, "resolve_orphan_ack", None)
            if resolve is not None:
                resolve(locations.block.name, locations.version)

    def post_block_hook(
        self, locations: BlockLocations, targets: List[DataNode]
    ) -> Generator:
        """Overridable: runs after all replicas of a block are durable."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def read_file(self, path: str, prefer_local: Optional[bool] = None) -> Generator:
        """Read every block of ``path``; returns total bytes read.

        ``prefer_local`` overrides the client's replica-choice policy for
        this call (map tasks scheduled data-local pass True).
        """
        total = 0
        for block in self.namenode.file_blocks(path):
            locations = self.namenode.locate_block(block.block_id)
            yield from self.read_block(locations, prefer_local=prefer_local)
            total += block.size
        return total

    def read_block(
        self, locations: BlockLocations, prefer_local: Optional[bool] = None
    ) -> Generator:
        """Read one block from a chosen replica; returns its payload.

        A replica dying between selection and completion fails over to
        another replica with bounded retry/backoff, excluding the ones
        that already failed this read.  When every attempt is exhausted
        the read surfaces as :class:`BlockMissingError`, which RAIDP
        clients turn into an Lstor-assisted degraded read.
        """
        trace = self.sim.trace
        t0 = self.sim.now
        failed_names: set = set()
        attempt = 0
        while True:
            datanode = self._choose_replica(
                locations, prefer_local=prefer_local, exclude=failed_names
            )
            try:
                payload = yield from self._read_replica(datanode, locations)
                if trace.enabled:
                    trace.complete(
                        "hdfs", "read_block", t0, self.sim.now,
                        block=locations.block.name, replica=datanode.name,
                        failovers=attempt,
                    )
                return payload
            except (DfsError, DeviceError) as exc:
                failed_names.add(datanode.name)
                attempt += 1
                self.stats_read_failovers += 1
                if trace.enabled:
                    trace.instant(
                        "hdfs", "read_failover", self.sim.now,
                        block=locations.block.name, replica=datanode.name,
                    )
                if attempt > self.config.read_retries:
                    raise BlockMissingError(
                        f"block {locations.block.name}: "
                        f"{attempt} read attempts all failed"
                    ) from exc
                if self.config.read_backoff > 0:
                    yield self.sim.timeout(self.config.read_backoff * attempt)

    def _read_replica(
        self, datanode: DataNode, locations: BlockLocations
    ) -> Generator:
        """One read attempt against one replica."""
        reader = self.sim.process(
            datanode.read_block(locations),
            name=f"read:{locations.block.name}@{datanode.name}",
        )
        if datanode.node is self.node:
            payload = yield reader
        else:
            # Overlap the replica's disk read with the network transfer.
            flow = self.switch.transfer(
                datanode.node.primary_nic,
                self.node.primary_nic,
                locations.block.size,
            )
            results = yield self.sim.all_of([reader, flow])
            payload = results[0]
        return payload

    def _choose_replica(
        self,
        locations: BlockLocations,
        prefer_local: Optional[bool] = None,
        exclude: frozenset = frozenset(),
    ) -> DataNode:
        live = [
            datanode
            for name in locations.datanodes
            if name not in exclude
            and healthy_datanode(datanode := self.namenode.datanode(name))
        ]
        if not live:
            raise BlockMissingError(
                f"no live replica of block {locations.block.name}"
            )
        local_first = (
            self.prefer_local_read if prefer_local is None else prefer_local
        )
        if local_first:
            for datanode in live:
                if datanode.node is self.node:
                    return datanode
        return self._rng.choice(live)

    # ------------------------------------------------------------------
    # Deletion (lazy, as in HDFS).
    # ------------------------------------------------------------------
    def delete_file(self, path: str) -> Generator:
        """Remove a file; replicas are dropped without charging disk time
        (HDFS purges lazily, and RAIDP defers parity work to idle times --
        paper §5)."""
        records = self.namenode.delete_file(path)
        for locations in records:
            for name in locations.datanodes:
                self.namenode.datanode(name).delete_block(locations)
        return None
        yield  # pragma: no cover - makes this a generator
