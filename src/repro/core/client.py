"""RAIDP-aware DFS client: degraded reads through the Lstor (paper §3.4).

Between a double failure and the end of recovery, blocks whose two
replicas are both gone are still *readable*: "Reading is handled similar
to erasure coded systems, but the scope of impact is substantially
smaller" -- the client assembles the block from a failed home's Lstor
parity and the mirrors of that home's other superchunks at the same
slot.  The recovery's own plan, with the block's two homes as the dead
set (:func:`~repro.core.layout.plan_recovery`), picks the home and its
chain, and :meth:`RaidpDataNode.decode` rebuilds the slot, so the home's
journal stands in for any write its parity has not absorbed.  Expensive
(it touches up to N-1 nodes, like a degraded erasure-coded read), but it
keeps data available during the recovery window.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.layout import Layout, plan_recovery
from repro.core.node import RaidpDataNode, liveness
from repro.core.placement import SuperchunkMap
from repro.errors import BlockMissingError, DeviceError
from repro.hdfs.block import BlockLocations
from repro.hdfs.client import DfsClient


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
        """Assemble a doubly-lost block through the first of its homes (in
        name order) the recovery plan decodes it from, with the block's
        homes as the dead set: the rebuild's decode for its one slot."""
        block = locations.block
        sc_id, slot = locations.sc_id, locations.slot
        trace = self.sim.trace
        t0 = self.sim.now
        if sc_id is None or slot is None:
            raise BlockMissingError(
                f"no live replica of {block.name} and no superchunk placement"
            )
        homes = self.layout.superchunk(sc_id).disks
        alive = liveness(map(self._raidp_datanode, self.layout.disks))
        decoders = plan_recovery(self.layout, homes, *alive).decode
        if sc_id not in decoders:
            raise BlockMissingError(
                f"degraded read of {block.name}: no home of superchunk "
                f"{sc_id} has a live Lstor and a healthy chain"
            )
        home, chain = decoders[sc_id][0]
        source = self._raidp_datanode(home)
        # Decode in the instant the chain was checked; the charges follow.
        decoded = source.decode(sc_id, chain, range(slot, slot + 1))
        rebuilt = decoded.get(slot, self.factory.zero(block.size))
        # Parity block ships from the failed disk's (alive) node.
        yield self.switch.transfer(
            source.node.primary_nic, self.node.primary_nic, block.size
        )
        for other_sc, holder in chain.items():
            mirror = self._raidp_datanode(holder)
            try:
                yield from mirror.read_slot(other_sc, slot, block.size)
            except DeviceError as exc:  # the chain disk died mid-read
                raise BlockMissingError(f"degraded read of {block.name}: {exc}") from exc
            yield self.switch.transfer(
                mirror.node.primary_nic, self.node.primary_nic, block.size
            )
        # The XOR chain is a CPU pass on the client.
        yield from self.node.compute_bytes(
            block.size * (len(chain) + 1), intensity=0.2
        )
        self.stats_degraded_reads += 1
        if trace.enabled:
            trace.complete(
                "hdfs", "degraded_read", t0, self.sim.now,
                block=block.name, sc=sc_id, source=source.name,
            )
        return rebuilt.resized(block.size)

    def _raidp_datanode(self, name: str) -> RaidpDataNode:
        datanode = self.namenode.datanode(name)
        assert isinstance(datanode, RaidpDataNode)
        return datanode
