"""Block scrubbing: bit-rot detection and repair.

The paper motivates extra redundancy with "bad sectors on replicas used
for recovery" [Pinheiro et al.]; a production system therefore scrubs:
it periodically re-reads blocks, verifies their checksums (HDFS keeps a
CRC file beside every block), and repairs mismatches.

RAIDP gives the scrubber a second repair source besides the remote
mirror: the *local* Lstor.  A corrupted block equals the parity XOR the
disk's other superchunks' blocks at the same slot -- all local reads, no
network.  :class:`Scrubber` implements detection plus both repair paths,
and :func:`corrupt_block` injects bit rot beneath the parity (media decay
does not update the Lstor, so parity still reflects the good data --
which is exactly why the local repair works).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, List

import numpy as np

from repro.core.node import RaidpDataNode
from repro.errors import DataLossError, RecoveryError
from repro.hdfs.block import BlockLocations
from repro.hdfs.datanode import DataNode
from repro.storage.payload import BytesPayload, Payload, TokenPayload, XorAccumulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cluster import RaidpCluster


def corrupt_block(datanode: DataNode, block_name: str, seed: int = 0xBAD) -> None:
    """Inject bit rot into one stored replica, beneath the parity.

    In the bytes plane some bytes are flipped; in the token plane the
    content is replaced by a distinguishable rot token.  The Lstor parity
    and the checksum record are left alone -- media decay asks nobody.
    """
    payload = datanode.content_of(block_name)
    if isinstance(payload, BytesPayload):
        rng = np.random.default_rng(seed)
        data = payload.data.copy()
        victims = rng.choice(len(data), size=max(len(data) // 128, 1), replace=False)
        data[victims] ^= 0xFF
        rotten: Payload = BytesPayload.adopt(data)
    else:
        rotten = TokenPayload.of(f"ROT:{block_name}", seed)
    # Slip beneath the content store without touching version/checksum.
    datanode._contents[block_name] = rotten


@dataclass
class ScrubReport:
    """Outcome of one scrub pass over a DataNode."""

    scanned: int = 0
    corrupt: List[str] = field(default_factory=list)
    repaired: List[str] = field(default_factory=list)
    duration: float = 0.0


class Scrubber:
    """Scans DataNodes for checksum mismatches and repairs them."""

    def __init__(self, dfs: "RaidpCluster") -> None:
        self.dfs = dfs
        self.sim = dfs.sim

    # ------------------------------------------------------------------
    # Detection.
    # ------------------------------------------------------------------
    def verify_block(self, datanode: DataNode, block_name: str) -> bool:
        """Does the stored content still match its recorded checksum?"""
        return datanode.content_checksum_ok(block_name)

    def scan(
        self, datanode: DataNode, repair: bool = True, source: str = "mirror"
    ) -> Generator:
        """Process body: read and verify every replica on ``datanode``.

        Charges a full disk read plus checksum computation per block.
        Returns a :class:`ScrubReport`.
        """
        report = ScrubReport()
        started = self.sim.now
        for locations in list(self.dfs.namenode.all_blocks()):
            block = locations.block
            if not datanode.has_block(block.name):
                continue
            yield from datanode.fs.read(block.name, 0, block.size)
            yield from datanode._process_stream(block.size)  # CRC pass
            report.scanned += 1
            if not self.verify_block(datanode, block.name):
                report.corrupt.append(block.name)
                if repair:
                    yield from self.repair(datanode, locations, source=source)
                    report.repaired.append(block.name)
        report.duration = self.sim.now - started
        return report

    # ------------------------------------------------------------------
    # Repair.
    # ------------------------------------------------------------------
    def repair(
        self, datanode: DataNode, locations: BlockLocations, source: str = "mirror"
    ) -> Generator:
        """Restore one corrupted replica.

        ``source="mirror"`` fetches the mirror's good copy (network +
        remote disk read); ``source="local_parity"`` rebuilds from the
        local Lstor and the disk's other superchunks at the same slot
        (local reads only -- RAIDP-specific).
        """
        if source == "mirror":
            yield from self._repair_from_mirror(datanode, locations)
        elif source == "local_parity":
            yield from self._repair_from_local_parity(datanode, locations)
        else:
            raise ValueError(f"unknown repair source {source!r}")
        return None

    def _repair_from_mirror(
        self, datanode: DataNode, locations: BlockLocations
    ) -> Generator:
        block = locations.block
        others = [n for n in locations.datanodes if n != datanode.name]
        mirrors = [
            self.dfs.namenode.datanode(n)
            for n in others
            if self.dfs.namenode.datanode(n).alive
        ]
        if not mirrors:
            raise DataLossError(f"no live mirror to repair {block.name} from")
        mirror = mirrors[0]
        good = yield from mirror.read_block(locations)
        if not mirror.content_checksum_ok(block.name):
            raise DataLossError(f"both replicas of {block.name} are rotten")
        yield self.dfs.switch.transfer(
            mirror.node.primary_nic, datanode.node.primary_nic, block.size
        )
        yield from datanode.fs.write(block.name, 0, block.size)
        # Bit rot never reached the parity; only the content store heals.
        datanode._contents[block.name] = good
        return None

    def _repair_from_local_parity(
        self, datanode: DataNode, locations: BlockLocations
    ) -> Generator:
        if not isinstance(datanode, RaidpDataNode):
            raise RecoveryError("local-parity repair requires a RAIDP datanode")
        block = locations.block
        sc_id, slot = locations.sc_id, locations.slot
        if sc_id is None or slot is None:
            raise RecoveryError(f"{block.name} lacks a superchunk placement")
        # XOR the parity with every *other* local superchunk's block at
        # this slot; each contributes one local disk read.
        chain = XorAccumulator(datanode.lstors.parity_block(slot))
        for other_sc in datanode.layout.superchunks_of(datanode.name):
            if other_sc == sc_id:
                continue
            payload = datanode.slot_payload(other_sc, slot)
            yield from datanode.read_slot(other_sc, slot, block.size)
            chain.add(payload)
        accum = chain.result()
        if not self._matches_checksum(datanode, block.name, accum):
            raise DataLossError(
                f"local parity reconstruction of {block.name} failed its checksum"
            )
        yield from datanode.fs.write(block.name, 0, block.size)
        datanode._contents[block.name] = accum
        return None

    @staticmethod
    def _matches_checksum(
        datanode: DataNode, block_name: str, candidate: Payload
    ) -> bool:
        record = datanode._checksums.get(block_name)
        return record is not None and record.checksum() == candidate.checksum()
