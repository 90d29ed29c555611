"""RaidpCluster: the public facade assembling a full RAIDP deployment.

Mirrors :class:`repro.hdfs.filesystem.HdfsCluster` but with two-way
replication, the rotational superchunk layout spanning every DataNode,
RAIDP placement, Lstor-equipped DataNodes, and clients configured for the
paper's optimized write path (block accumulation + writer lock) unless
the unoptimized ablation is requested.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional

from repro import units
from repro.core.client import RaidpClient
from repro.core.layout import LayoutSpec, domain_aware_layout, rotational_layout
from repro.core.journal import RecordState
from repro.core.node import RaidpConfig, RaidpDataNode
from repro.core.placement import RaidpPlacement, SuperchunkMap
from repro.errors import LayoutError
from repro.hdfs.config import DfsConfig
from repro.hdfs.namenode import NameNode
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.engine import Simulator
from repro.sim.network import Switch
from repro.storage.payload import ContentFactory
from repro.sim.snapshot import InlineState


class RaidpCluster(InlineState):
    """A ready-to-run RAIDP deployment over the simulated cluster."""

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        config: Optional[DfsConfig] = None,
        raidp: Optional[RaidpConfig] = None,
        superchunk_size: Optional[int] = None,
        superchunks_per_disk: Optional[int] = None,
        seed: int = 0xF00D,
    ) -> None:
        self.sim = Simulator()
        self.spec = spec or ClusterSpec()
        base_config = config or DfsConfig()
        if base_config.replication != 2:
            # RAIDP is a 2-way system; coerce only the replication factor
            # and keep every other knob the caller chose.
            base_config = dataclasses.replace(base_config, replication=2)
        self.config = base_config
        self.raidp = raidp or RaidpConfig()
        self.cluster = Cluster(self.sim, self.spec)
        self.factory = ContentFactory(seed=seed)

        sc_size = superchunk_size or 6 * units.GiB
        layout_spec = LayoutSpec(
            superchunk_size=sc_size, block_size=self.config.block_size
        )
        disks_per_node = self.spec.disks_per_node
        if disks_per_node == 1:
            node_names = [node.name for node in self.cluster.nodes]
            self.layout = rotational_layout(
                len(node_names),
                superchunks_per_disk=superchunks_per_disk,
                spec=layout_spec,
                disk_names=node_names,
            )
        else:
            # Multi-disk servers: one DataNode per disk, the server is
            # the failure domain (paper §3.1 / §3.3's 12-disk example).
            if superchunks_per_disk is None:
                raise LayoutError(
                    "multi-disk clusters require an explicit superchunks_per_disk"
                )
            domains = {
                f"{node.name}-d{index}": node.name
                for node in self.cluster.nodes
                for index in range(disks_per_node)
            }
            self.layout = domain_aware_layout(
                domains, superchunks_per_disk, spec=layout_spec
            )
        self.map = SuperchunkMap(self.layout)
        self.placement = RaidpPlacement(self.layout, self.map, seed=seed)
        self.namenode = NameNode(self.config, self.placement)
        #: The server hosting the NameNode process (heartbeat endpoint).
        #: Like small Hadoop deployments, it is collocated with node 0.
        self.namenode_node = self.cluster.nodes[0]

        self.datanodes: List[RaidpDataNode] = []
        for node in self.cluster.nodes:
            for index, disk in enumerate(node.disks):
                datanode = RaidpDataNode(
                    self.sim,
                    node,
                    self.config,
                    self.factory,
                    self.layout,
                    self.map,
                    self.raidp,
                    self.cluster.switch,
                    disk=disk,
                    name=(
                        node.name if disks_per_node == 1 else f"{node.name}-d{index}"
                    ),
                )
                self.namenode.register_datanode(datanode)
                datanode.attach_namenode(self.namenode)
                self.datanodes.append(datanode)

        self.clients: List[RaidpClient] = [
            RaidpClient(
                self.sim,
                node,
                self.namenode,
                self.cluster.switch,
                self.factory,
                seed=seed + index,
                layout=self.layout,
                superchunk_map=self.map,
            )
            for index, node in enumerate(self.cluster.nodes)
        ]

        if self.raidp.update_oriented:
            for datanode in self.datanodes:
                datanode.preallocate_superchunks()

    # ------------------------------------------------------------------
    # Accessors.
    # ------------------------------------------------------------------
    def client(self, index: int = 0) -> RaidpClient:
        return self.clients[index]

    def datanode_by_name(self, name: str) -> RaidpDataNode:
        datanode = self.namenode.datanode(name)
        assert isinstance(datanode, RaidpDataNode)
        return datanode

    @property
    def switch(self) -> Switch:
        return self.cluster.switch

    def total_network_bytes(self) -> int:
        return self.cluster.total_network_bytes()

    # ------------------------------------------------------------------
    # Invariant checking (used by tests and the failure drills).
    # ------------------------------------------------------------------
    def verify_mirrors(self) -> None:
        """Every live block's two replicas hold identical content."""
        for locations in self.namenode.all_blocks():
            payloads = []
            for name in locations.datanodes:
                datanode = self.datanode_by_name(name)
                if datanode.alive and datanode.has_block(locations.block.name):
                    payloads.append(datanode.content_of(locations.block.name))
            for payload in payloads[1:]:
                if payload != payloads[0]:
                    raise LayoutError(
                        f"mirror divergence on block {locations.block.name}"
                    )

    def _parity_trusted(self) -> Iterator[RaidpDataNode]:
        """The DataNodes whose parity must match their disk: alive, in
        the layout (one evicted by recovery rejoined empty) and with a
        live Lstor row.  Dead and evicted disks keep their parity and
        journal as they were, for recovery to read."""
        for datanode in self.datanodes:
            if (
                datanode.alive
                and datanode.name in self.layout.disks
                and datanode.lstors.live_rows()
            ):
                yield datanode

    def unabsorbed_writes(self) -> List[str]:
        """``node:block@version`` per write still between journal append
        and commit in the live journal of a parity-trusted DataNode --
        the only span in which parity legitimately trails the data (a
        COMMITTED record has absorbed its delta).  Records stranded in a
        journal that died with its Lstor are not counted.  Empty on a
        quiescent cluster."""
        return [
            f"{datanode.name}:{record.block_name}@{record.version}"
            for datanode in self._parity_trusted()
            if not datanode.lstors.primary.failed
            for record in datanode.lstors.journal.replay_candidates()
            if record.state is RecordState.APPENDED
        ]

    def verify_parity(self) -> None:
        """Every live parity row matches its disk's superchunks.

        A pure observer that draws nothing: :meth:`Lstor.covers`
        compares each live row's terms with the sum its disk's blocks
        make, and folds, caches and makes nothing.
        """
        for datanode in self._parity_trusted():
            shards = [
                (datanode.shard_index_of(sc_id), sc_id)
                for sc_id in self.layout.superchunks_of(datanode.name)
            ]
            for slot in range(self.map.slots_per_superchunk):
                blocks = {
                    shard: datanode.slot_payload(sc_id, slot) for shard, sc_id in shards
                }
                if not datanode.lstors.covers(slot, blocks):
                    raise LayoutError(
                        f"parity mismatch on {datanode.name} slot {slot}"
                    )

    def journals_empty(self) -> bool:
        """True when no live journal holds an outstanding record: one
        that died with its Lstor strands its records for good."""
        return all(
            dn.lstors.journal.outstanding == 0
            for dn in self.datanodes
            if not dn.lstors.primary.failed
        )
