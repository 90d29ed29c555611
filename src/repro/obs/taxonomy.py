"""The span-category taxonomy: every trace category, registered once.

Instrumentation sites across the tree emit events under short category
strings (``trace.complete("disk", ...)``).  Exporters group tracks by
category, ``raidpctl trace`` summarizes per category, and the recovery
breakdown keys its phases off them -- so a typo'd or ad-hoc category
silently drops events from every downstream view.  This table is the
single registry; the ``RDP004`` lint rule (:mod:`repro.lint`) statically
checks that every *literal* category used at an emission site appears
here, so a new category must land together with its registration.

Adding a category is one line: name -> a sentence describing what the
category's events mean and who emits them.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CATEGORIES", "is_registered"]

#: Category name -> what its events record (and the emitting layer).
CATEGORIES: Dict[str, str] = {
    "engine": "Simulation-process lifetimes, emitted by sim/engine.py.",
    "disk": "Platter-level operations (seek/rmw/sync), emitted by sim/disk.py.",
    "net": "Switch flow spans, re-solve instants, and active-flow counters, "
    "emitted by sim/network.py.",
    "hdfs": "Client-visible block operations (write_block, read_block, "
    "read_failover, pipeline_recover, degraded_read), emitted by "
    "hdfs/client.py and core/client.py.",
    "dn": "DataNode-side replica writes/reads, emitted by hdfs/datanode.py.",
    "recovery": "Failure detection instants and recovery windows/plans, "
    "emitted by core/monitor.py and core/recovery.py.",
    "fault": "Fault-injection instants (disk_fail, node_crash, ...), "
    "emitted by faults.py.",
    "journal": "Journal occupancy counter samples, emitted by core/journal.py.",
    "bench": "Process bodies under repro/tools/ (the chaos soak's traffic "
    "and verify loops), attributed by obs/simprofile.py.",
    "workload": "Application-level workload drivers (DFSIO, TeraSort, "
    "WordCount task loops), attributed by obs/simprofile.py.",
    "durability": "Long-horizon durability-engine events (loss-risk "
    "instants, per-trial spans), emitted by analysis/montecarlo.py.",
    "fleet": "Fleet-level state samples (dead-disk counters, merged "
    "rack-outage segments), emitted by analysis/montecarlo.py.",
    "telemetry": "Flight-recorder time-series samples (counter/gauge/"
    "percentile values at sampler ticks), emitted by obs/timeseries.py.",
    "audit": "Redundancy invariant auditor instants (checks run, "
    "violations raised), emitted by obs/audit.py.",
    "slo": "SLO-engine verdict instants (burn-rate evaluations over "
    "sampler windows), emitted by obs/slo.py.",
}


def is_registered(category: str) -> bool:
    """True if ``category`` is a registered span category."""
    return category in CATEGORIES
