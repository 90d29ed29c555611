"""Deterministic discrete-event simulation substrate.

The paper evaluates RAIDP on a 16-node cluster of spinning disks and
ethernet NICs.  This package replaces that testbed with a seedable,
deterministic discrete-event simulator:

- :mod:`repro.sim.engine` -- event heap, generator-based processes,
  timeouts, and the all-of join (a minimal simpy-like kernel).
- :mod:`repro.sim.resources` -- FIFO resources, locks, and byte-range
  locks used to model disk serialization and reconstruction locking.
- :mod:`repro.sim.disk` -- a mechanical hard-drive model with seek,
  rotational, and transfer components plus failure injection.
- :mod:`repro.sim.network` -- max-min fair-share links, NICs, and a
  star-topology switch with per-node traffic accounting.
- :mod:`repro.sim.node` / :mod:`repro.sim.cluster` -- servers that bundle
  CPU, RAM, disks and NICs, and a cluster topology builder.
- :mod:`repro.sim.stats` -- the gauge and histogram components own.
"""

from repro.sim.engine import AllOf, Event, Process, Simulator, Timeout
from repro.sim.resources import ByteRangeLock, Lock, Resource
from repro.sim.disk import Disk, DiskGeometry, DiskStats
from repro.sim.network import Nic, Switch, FlowStats
from repro.sim.node import Node, CpuModel
from repro.sim.cluster import Cluster, ClusterSpec

__all__ = [
    "AllOf",
    "ByteRangeLock",
    "Cluster",
    "ClusterSpec",
    "CpuModel",
    "Disk",
    "DiskGeometry",
    "DiskStats",
    "Event",
    "FlowStats",
    "Lock",
    "Nic",
    "Node",
    "Process",
    "Resource",
    "Simulator",
    "Switch",
    "Timeout",
]
