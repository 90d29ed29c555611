"""The RAIDP core: the paper's primary contribution.

- :mod:`repro.core.layout` -- superchunk layout (1-sharing, 1-mirroring).
- :mod:`repro.core.lstor` -- per-disk parity add-ons, single and stacked.
- :mod:`repro.core.journal` -- the crash-consistency journal.
- :mod:`repro.core.placement` -- pair-constrained block placement.
- :mod:`repro.core.node` -- the RAIDP DataNode.
- :mod:`repro.core.cluster` -- the :class:`RaidpCluster` facade.
- :mod:`repro.core.recovery` -- single- and double-failure recovery.
"""

from repro.core.client import RaidpClient
from repro.core.cluster import RaidpCluster
from repro.core.journal import Journal, JournalRecord, RecordState
from repro.core.layout import Layout, LayoutSpec, Superchunk, rotational_layout
from repro.core.lstor import Lstor, LstorStack
from repro.core.monitor import ClusterMonitor, MonitorConfig
from repro.core.node import RaidpConfig, RaidpDataNode
from repro.core.placement import RaidpPlacement, SuperchunkMap
from repro.core.recovery import RecoveryManager, RecoveryOptions, RecoveryReport

__all__ = [
    "ClusterMonitor",
    "RaidpClient",
    "Journal",
    "JournalRecord",
    "Layout",
    "LayoutSpec",
    "Lstor",
    "LstorStack",
    "MonitorConfig",
    "RaidpCluster",
    "RaidpConfig",
    "RaidpDataNode",
    "RaidpPlacement",
    "RecordState",
    "RecoveryManager",
    "RecoveryOptions",
    "RecoveryReport",
    "Superchunk",
    "SuperchunkMap",
    "rotational_layout",
]
