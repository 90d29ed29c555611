"""RAIDP-aware DFS client: degraded reads through the Lstor (paper §3.4).

Between a double failure and the end of recovery, blocks whose two
replicas are both gone are still *readable*: "Reading is handled similar
to erasure coded systems, but the scope of impact is substantially
smaller" -- the client assembles the block from a failed disk's Lstor
parity and the surviving mirrors of that disk's other superchunks at the
same slot.  Expensive (it touches up to N-1 nodes, like a degraded
erasure-coded read), but it keeps data available during the recovery
window.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.layout import Layout
from repro.core.node import RaidpDataNode
from repro.core.placement import SuperchunkMap
from repro.errors import BlockMissingError
from repro.hdfs.block import BlockLocations
from repro.hdfs.client import DfsClient
from repro.hdfs.namenode import healthy_datanode
from repro.storage.payload import XorAccumulator


class RaidpClient(DfsClient):
    """A DFS client that falls back to Lstor-assisted degraded reads."""

    def __init__(
        self,
        *args: Any,
        layout: Layout,
        superchunk_map: SuperchunkMap,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.layout = layout
        self.map = superchunk_map
        self.stats_degraded_reads = 0

    def read_block(
        self, locations: BlockLocations, prefer_local: Optional[bool] = None
    ) -> Generator:
        try:
            payload = yield from super().read_block(locations, prefer_local)
        except BlockMissingError:
            payload = yield from self.degraded_read(locations)
        return payload

    def degraded_read(self, locations: BlockLocations) -> Generator:
        """Assemble a doubly-lost block from an Lstor plus mirrors."""
        block = locations.block
        sc_id, slot = locations.sc_id, locations.slot
        trace = self.sim.trace
        t0 = self.sim.now
        if sc_id is None or slot is None:
            raise BlockMissingError(
                f"no live replica of {block.name} and no superchunk placement"
            )
        source = self._pick_parity_source(sc_id)
        # Parity block ships from the failed disk's (alive) node.
        accum = XorAccumulator(source.lstors.parity_block(slot))
        yield self.switch.transfer(
            source.node.primary_nic, self.node.primary_nic, block.size
        )
        # XOR in the mirrors of the source disk's other superchunks.
        for other_sc in self.layout.superchunks_of(source.name):
            if other_sc == sc_id:
                continue
            mirror_name = self.layout.superchunk(other_sc).mirror_of(source.name)
            mirror = self.namenode.datanode(mirror_name)
            if not healthy_datanode(mirror):
                raise BlockMissingError(
                    f"degraded read of {block.name} needs dead mirror {mirror_name}"
                )
            assert isinstance(mirror, RaidpDataNode)
            payload = mirror.slot_payload(other_sc, slot)
            yield from mirror.read_slot(other_sc, slot, block.size)
            yield self.switch.transfer(
                mirror.node.primary_nic, self.node.primary_nic, block.size
            )
            accum.add(payload)
        # The XOR chain is a CPU pass on the client.
        yield from self.node.compute_bytes(
            block.size * max(len(self.layout.superchunks_of(source.name)), 1),
            intensity=0.2,
        )
        self.stats_degraded_reads += 1
        if trace.enabled:
            trace.complete(
                "hdfs", "degraded_read", t0, self.sim.now,
                block=block.name, sc=sc_id, source=source.name,
            )
        return accum.result()

    def _pick_parity_source(self, sc_id: int) -> RaidpDataNode:
        """A home of the lost superchunk whose node and Lstor survive."""
        sc = self.layout.superchunk(sc_id)
        for home in sorted(sc.disks):
            datanode = self.namenode.datanode(home)
            assert isinstance(datanode, RaidpDataNode)
            if datanode.node.alive and not datanode.lstors.primary.failed:
                return datanode
        raise BlockMissingError(
            f"superchunk {sc_id}: no reachable Lstor for a degraded read"
        )
