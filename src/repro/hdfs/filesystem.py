"""HdfsCluster: one-call assembly of a complete baseline DFS.

Builds the simulator, the hardware cluster, the NameNode with stock
replication placement, one DataNode per node, and a client per node.
This is the HDFS-2 / HDFS-3 baseline of the paper's evaluation; the RAIDP
variant lives in :mod:`repro.core.cluster`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hdfs.client import DfsClient
from repro.hdfs.config import DfsConfig
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode, PlacementPolicy, ReplicationPlacement
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.engine import Simulator
from repro.storage.payload import ContentFactory
from repro.sim.snapshot import InlineState


class HdfsCluster(InlineState):
    """A ready-to-run baseline DFS over the simulated cluster."""

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        config: Optional[DfsConfig] = None,
        placement: Optional[PlacementPolicy] = None,
        seed: int = 0xF00D,
    ) -> None:
        self.sim = Simulator()
        self.spec = spec or ClusterSpec()
        self.config = config or DfsConfig()
        self.cluster = Cluster(self.sim, self.spec)
        self.factory = ContentFactory(seed=seed)
        self.namenode = NameNode(
            self.config,
            placement or ReplicationPlacement(self.config.replication, seed=seed),
        )
        #: The server hosting the NameNode process (heartbeat endpoint).
        self.namenode_node = self.cluster.nodes[0]
        self.datanodes: List[DataNode] = []
        for node in self.cluster.nodes:
            datanode = DataNode(self.sim, node, self.config, self.factory)
            self.namenode.register_datanode(datanode)
            self.datanodes.append(datanode)
        self.clients: List[DfsClient] = [
            DfsClient(
                self.sim,
                node,
                self.namenode,
                self.cluster.switch,
                self.factory,
                seed=seed + index,
            )
            for index, node in enumerate(self.cluster.nodes)
        ]

    @property
    def switch(self):
        return self.cluster.switch

    def total_network_bytes(self) -> int:
        return self.cluster.total_network_bytes()

