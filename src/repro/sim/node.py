"""Server model: CPU, RAM buffer accounting, disks, and NICs.

A :class:`Node` bundles the per-server devices that the distributed layers
(HDFS, RAIDP) schedule work onto.  The CPU is a counted resource (one
grant per core); compute phases -- sort passes, word counting, parity
arithmetic when not offloaded -- charge simulated seconds against it, so
CPU-heavy workloads (WordCount) dilute I/O-path differences exactly as in
the paper's Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro import units
from repro.sim.disk import Disk, DiskGeometry
from repro.sim.engine import Simulator
from repro.sim.network import Nic
from repro.sim.resources import Resource
from repro.sim.snapshot import InlineState


@dataclass(frozen=True)
class CpuModel(InlineState):
    """Per-node compute parameters.

    ``compute_rate`` is the rate at which a single core chews through
    byte-oriented work (hashing, comparison, counting).  The default of
    400 MB/s/core approximates a 3.1 GHz Xeon core running JVM-era Hadoop
    record processing.
    """

    cores: int = 4
    compute_rate: float = 400 * units.MB  # bytes/second/core


class Node(InlineState):
    """One server: named devices plus CPU and RAM-buffer bookkeeping."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu: Optional[CpuModel] = None,
        ram: int = 16 * units.GiB,
    ) -> None:
        self.sim = sim
        self.name = name
        self.cpu = cpu or CpuModel()
        self.ram = ram
        self.disks: List[Disk] = []
        self.nics: List[Nic] = []
        self._cpu_resource = Resource(sim, capacity=self.cpu.cores, name=f"{name}.cpu")
        self.alive = True

    # ------------------------------------------------------------------
    # Device attachment.
    # ------------------------------------------------------------------
    def add_disk(self, geometry: Optional[DiskGeometry] = None) -> Disk:
        disk = Disk(self.sim, geometry, name=f"{self.name}.d{len(self.disks)}")
        self.disks.append(disk)
        return disk

    def add_nic(self, nic: Nic) -> Nic:
        self.nics.append(nic)
        return nic

    @property
    def primary_nic(self) -> Nic:
        if not self.nics:
            raise ValueError(f"node {self.name} has no NIC")
        return self.nics[0]

    @property
    def primary_disk(self) -> Disk:
        if not self.disks:
            raise ValueError(f"node {self.name} has no disk")
        return self.disks[0]

    # ------------------------------------------------------------------
    # Compute.
    # ------------------------------------------------------------------
    def compute(self, seconds: float) -> Generator:
        """Occupy one core for ``seconds`` of work."""
        grant = yield self._cpu_resource.request()
        try:
            yield self.sim.timeout(seconds)
        finally:
            self._cpu_resource.release(grant)
        return seconds

    def compute_bytes(self, nbytes: int, intensity: float = 1.0) -> Generator:
        """Charge CPU for processing ``nbytes`` of data.

        ``intensity`` scales the work: 1.0 is one pass of record
        processing, higher values model heavier per-byte computation.
        """
        seconds = intensity * nbytes / self.cpu.compute_rate
        result = yield from self.compute(seconds)
        return result

    # ------------------------------------------------------------------
    # Whole-node failure (takes down disks but, per the paper's failure
    # model, never the Lstors attached to them).
    # ------------------------------------------------------------------
    def fail(self) -> None:
        self.alive = False
        for disk in self.disks:
            disk.fail()

    def restart(self) -> None:
        """Bring a crashed server back with replaced (empty) disks.

        The distributed layers are responsible for re-registering the
        node's DataNodes and reconciling content (block report / rejoin
        protocol); this only flips the hardware back on.
        """
        self.alive = True
        for disk in self.disks:
            if disk.failed:
                disk.repair()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} disks={len(self.disks)} alive={self.alive}>"
