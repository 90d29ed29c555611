"""Configuration knobs for the DFS substrate.

Defaults follow the paper's evaluation setup: Hadoop 1.0.4 defaults with
64 MB blocks and 64 KB network packets.  Every block write concludes
with a disk sync: the paper adds it to both RAIDP and the HDFS baseline
for a fair comparison (stock HDFS 1.0.4 lacked it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.sim.snapshot import InlineState

#: Size of the tiny control messages (journal acks, RPC).
ACK_SIZE = 1 * units.KiB
#: Per-replica stream-processing rate: packet handling plus CRC32
#: checksum computation/verification in the DataNode (JVM-era HDFS moves
#: data well below NIC speed).  Charged per block on the write and read
#: paths.
PIPELINE_PROCESS_RATE = 800 * units.MB


@dataclass(frozen=True)
class DfsConfig(InlineState):
    """DFS-wide settings shared by the NameNode, DataNodes, and clients."""

    block_size: int = 64 * units.MiB
    packet_size: int = 64 * units.KiB
    replication: int = 3
    #: Tasks per node for the MapReduce-style workloads (Hadoop default).
    tasks_per_node: int = 2
    #: Read-path failover: extra replica attempts after the first read
    #: fails mid-flight (HDFS clients rotate through the located replicas
    #: before giving up).  Each retry excludes the replicas that already
    #: failed this read.
    read_retries: int = 2
    #: Linear backoff between read attempts (seconds; attempt k waits
    #: ``k * read_backoff``).  Models the client-side retry pause.
    read_backoff: float = 10 * units.MSEC
    #: Write-path allocation retries when placement is transiently
    #: impossible (e.g. every eligible superchunk is frozen while a
    #: recovery is in flight).  0 keeps the historical fail-fast
    #: behavior; chaos/soak configurations opt in.
    allocate_retries: int = 0
    #: Linear backoff between allocation attempts (seconds).
    allocate_backoff: float = 1.0

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.packet_size <= 0:
            raise ValueError("sizes must be positive")
        if self.block_size % self.packet_size != 0:
            raise ValueError("block size must be a multiple of packet size")
        if self.replication < 1:
            raise ValueError("replication must be at least 1")
        if self.read_retries < 0 or self.allocate_retries < 0:
            raise ValueError("retry counts must be non-negative")
        if self.read_backoff < 0 or self.allocate_backoff < 0:
            raise ValueError("backoffs must be non-negative")
