"""Benchmark workloads: the paper's evaluation drivers.

- :mod:`repro.workloads.dfsio` -- TestDFSIO write/read (Fig. 8, Fig. 9).
- :mod:`repro.workloads.terasort` -- TeraGen + TeraSort with configurable
  output replication (Fig. 10).
- :mod:`repro.workloads.wordcount` -- WordCount: read-dominated I/O with
  a heavy CPU component (Fig. 10).

All drivers run against either an :class:`~repro.hdfs.filesystem.HdfsCluster`
or a :class:`~repro.core.cluster.RaidpCluster` (same duck type) and
return a :class:`~repro.workloads.driver.WorkloadResult` with runtime,
network volume, and disk counters.
"""

from repro.workloads.dfsio import dfsio_read, dfsio_write
from repro.workloads.driver import WorkloadResult
from repro.workloads.terasort import terasort
from repro.workloads.wordcount import wordcount

__all__ = [
    "WorkloadResult",
    "dfsio_read",
    "dfsio_write",
    "terasort",
    "wordcount",
]
