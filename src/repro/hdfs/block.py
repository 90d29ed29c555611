"""Block identities and location bookkeeping.

HDFS stores every block as an ordinary file named after the block id
(plus a checksum file).  We carry the same identity scheme: a block's
``name`` doubles as its local-filesystem file name on each replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional
from repro.sim.snapshot import InlineState


@dataclass(frozen=True)
class Block(InlineState):
    """Immutable identity of one DFS block."""

    block_id: int
    path: str  # the DFS file this block belongs to
    index: int  # position within the file
    size: int
    #: The local file name replicas store this block under, formatted
    #: once: every name-keyed lookup hashes this one string.
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", f"blk_{self.block_id}")


@dataclass
class BlockLocations(InlineState):
    """NameNode-side record: where a block's replicas live."""

    block: Block
    datanodes: List[str] = field(default_factory=list)  # datanode names
    #: RAIDP annotation: the superchunk this block was placed into, and
    #: its block slot within that superchunk.  None for plain HDFS.
    sc_id: Optional[int] = None
    slot: Optional[int] = None
    #: Content version, bumped on every rewrite of the same block slot.
    version: int = 1

    def remove_datanode(self, name: str) -> None:
        if name in self.datanodes:
            self.datanodes.remove(name)

    @property
    def replica_count(self) -> int:
        return len(self.datanodes)
