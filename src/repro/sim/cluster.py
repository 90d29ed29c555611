"""Cluster topology builder.

Reproduces the paper's testbed shape: N nodes in a star topology, each
with a fast NIC (10 Gbps) and a slow NIC (1 Gbps), one or more disks, and
a shared non-blocking switch.  Experiments choose which NIC the traffic
rides on (Table 2 compares both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import units
from repro.sim.disk import Disk, DiskGeometry
from repro.sim.engine import Simulator
from repro.sim.network import Nic, Switch
from repro.sim.node import CpuModel, Node
from repro.sim.snapshot import InlineState


@dataclass(frozen=True)
class ClusterSpec(InlineState):
    """Shape of the simulated cluster.

    The defaults mirror the paper's evaluation hardware: 16 nodes, one
    7200 RPM 2 TB disk each, 16 GiB RAM, a 10 Gbps primary NIC and a
    1 Gbps secondary NIC.
    """

    num_nodes: int = 16
    disks_per_node: int = 1
    disk_geometry: DiskGeometry = field(default_factory=DiskGeometry)
    nic_rate: float = units.gbps(10)
    secondary_nic_rate: Optional[float] = units.gbps(1)
    cpu: CpuModel = field(default_factory=CpuModel)
    ram: int = 16 * units.GiB


class Cluster(InlineState):
    """A fully-built topology: nodes, disks, NICs, one switch."""

    def __init__(self, sim: Simulator, spec: Optional[ClusterSpec] = None) -> None:
        self.sim = sim
        self.spec = spec or ClusterSpec()
        self.switch = Switch(sim)
        self.nodes: List[Node] = []
        self._by_name: Dict[str, Node] = {}
        for index in range(self.spec.num_nodes):
            self._build_node(index)

    def _build_node(self, index: int) -> Node:
        spec = self.spec
        node = Node(self.sim, name=f"n{index}", cpu=spec.cpu, ram=spec.ram)
        for _disk_index in range(spec.disks_per_node):
            node.add_disk(spec.disk_geometry)
        primary = Nic(f"{node.name}.nic0", spec.nic_rate)
        node.add_nic(self.switch.attach(primary))
        if spec.secondary_nic_rate is not None:
            secondary = Nic(f"{node.name}.nic1", spec.secondary_nic_rate)
            node.add_nic(self.switch.attach(secondary))
        self.nodes.append(node)
        self._by_name[node.name] = node
        return node

    # ------------------------------------------------------------------
    # Lookup helpers.
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        return self._by_name[name]

    def all_disks(self) -> List[Disk]:
        return [disk for node in self.nodes for disk in node.disks]

    # ------------------------------------------------------------------
    # Aggregate accounting.
    # ------------------------------------------------------------------
    def total_network_bytes(self) -> int:
        """Bytes that crossed the switch since construction."""
        return self.switch.total_bytes

    def total_disk_stats(self) -> Dict[str, int]:
        """Cluster-wide disk counters."""
        totals = {
            "reads": 0,
            "writes": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "seeks": 0,
        }
        for disk in self.all_disks():
            totals["reads"] += disk.stats.reads
            totals["writes"] += disk.stats.writes
            totals["bytes_read"] += disk.stats.bytes_read
            totals["bytes_written"] += disk.stats.bytes_written
            totals["seeks"] += disk.stats.seeks
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cluster nodes={len(self.nodes)}>"
