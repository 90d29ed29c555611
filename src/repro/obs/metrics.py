"""Cluster-wide metrics registry: one MetricSet over every component.

The simulator's components each keep their own cheap always-on
instruments -- per-disk :class:`~repro.sim.stats.DiskStats` counters, a
queue-depth :class:`~repro.sim.stats.TimeWeightedGauge` and an I/O
latency :class:`~repro.sim.stats.Histogram` on every :class:`Disk`, an
active-flow gauge on the :class:`Switch`, and an outstanding-record
gauge per journal.  This module gathers them into a single labeled
:class:`~repro.sim.stats.MetricSet` so an experiment (or ``raidpctl``
or the flight-recorder :class:`~repro.obs.timeseries.Sampler`) can
snapshot the whole cluster in one call.

``cluster_metrics`` registers *live views*: gauges and histograms are
the component-owned objects themselves, and component counts (plain int
attributes on ``DiskStats``, datanodes, clients) are exposed through
read-only :class:`~repro.sim.stats.CounterView` suppliers that re-read
the component on every access.  One registry built at cluster
construction therefore stays correct for the cluster's whole lifetime
-- there is nothing to refresh.  ``cluster_snapshot`` is the one-shot
convenience: build, register, and return ``as_dict(now)``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.stats import MetricSet


#: Exact switch work counters, metric name -> ``Switch`` attribute:
#: non-empty solves, the filling steps (port offers evaluated + flows
#: rated) they took, completion deadlines pushed (one per effective
#: re-rate), and completion-timer dispatches with the share of them that
#: retired nothing.  Deterministic, so they are compared with ``==``.
SWITCH_WORK_COUNTERS = {
    "net_solves_total": "solves",
    "net_fill_steps_total": "fill_steps",
    "net_deadline_pushes_total": "deadline_pushes",
    "net_timer_fires_total": "timer_fires",
    "net_timer_idle_total": "timer_idle_fires",
}


def cluster_metrics(
    dfs: Any,
    metrics: Optional[MetricSet] = None,
    monitor: Optional[Any] = None,
) -> MetricSet:
    """Register every component instrument of ``dfs`` into one registry.

    Counters are live read-only views over the components' cumulative
    counts (the registry never goes stale); gauges and histograms are
    the live objects themselves.  Labels identify the component:
    ``disk=<name>``, ``dn=<name>``, ``journal=<name>``,
    ``client=<index>``.  Passing a :class:`ClusterMonitor` additionally
    registers recovery repair-traffic views (``repair_bytes_total``,
    ``recoveries_total``, ``recovery_errors_total``).
    """
    metrics = metrics if metrics is not None else MetricSet()

    for datanode in dfs.datanodes:
        disk = datanode.disk
        name = disk.name
        stats = disk.stats
        metrics.register_counter("disk_reads", lambda s=stats: s.reads, disk=name)
        metrics.register_counter("disk_writes", lambda s=stats: s.writes, disk=name)
        metrics.register_counter(
            "disk_bytes_read", lambda s=stats: s.bytes_read, disk=name
        )
        metrics.register_counter(
            "disk_bytes_written", lambda s=stats: s.bytes_written, disk=name
        )
        metrics.register_counter("disk_seeks", lambda s=stats: s.seeks, disk=name)
        metrics.register_gauge("disk_queue_depth", disk.queue_gauge, disk=name)
        metrics.register_histogram("disk_io_latency", disk.io_latency, disk=name)

        metrics.register_counter(
            "dn_blocks_written",
            lambda d=datanode: d.stats_blocks_written,
            dn=datanode.name,
        )
        metrics.register_counter(
            "dn_blocks_read",
            lambda d=datanode: d.stats_blocks_read,
            dn=datanode.name,
        )

        lstors = getattr(datanode, "lstors", None)
        if lstors is not None:
            for lstor in lstors.lstors:
                journal = lstor.journal
                metrics.register_gauge(
                    "journal_outstanding",
                    journal.outstanding_gauge,
                    journal=lstor.name,
                )
                metrics.register_counter(
                    "journal_appends",
                    lambda j=journal: j.total_appends,
                    journal=lstor.name,
                )
                metrics.register_counter(
                    "journal_clears",
                    lambda j=journal: j.total_clears,
                    journal=lstor.name,
                )
                metrics.register_counter(
                    "journal_used_bytes",
                    lambda j=journal: j.used_bytes,
                    journal=lstor.name,
                )

    for index, client in enumerate(getattr(dfs, "clients", ()) or ()):
        if hasattr(client, "stats_pipeline_recoveries"):
            metrics.register_counter(
                "client_pipeline_recoveries",
                lambda c=client: c.stats_pipeline_recoveries,
                client=index,
            )
        if hasattr(client, "stats_read_failovers"):
            metrics.register_counter(
                "client_read_failovers",
                lambda c=client: c.stats_read_failovers,
                client=index,
            )
        if hasattr(client, "stats_degraded_reads"):
            metrics.register_counter(
                "client_degraded_reads",
                lambda c=client: c.stats_degraded_reads,
                client=index,
            )

    switch = dfs.switch
    metrics.register_counter("net_bytes_total", lambda s=switch: s.total_bytes)
    for name, attribute in SWITCH_WORK_COUNTERS.items():
        metrics.register_counter(
            name, lambda s=switch, a=attribute: getattr(s, a)
        )
    metrics.register_gauge("net_active_flows", switch.flows_gauge)

    # Blocks below their replication target right now: the cluster's
    # exposure to the next failure.  A live view -- the sampler reads it
    # at every tick, so the recovery-window exposure curve is visible.
    namenode = dfs.namenode
    metrics.register_gauge_view(
        "blocks_at_risk", lambda n=namenode: float(len(n.under_replicated()))
    )

    if monitor is not None:
        metrics.register_counter(
            "repair_bytes_total", lambda m=monitor: _repair_bytes(m)
        )
        metrics.register_counter(
            "recoveries_total", lambda m=monitor: len(m.reports)
        )
        metrics.register_counter(
            "recovery_errors_total", lambda m=monitor: len(m.recovery_errors)
        )
    return metrics


def _repair_bytes(monitor: Any) -> int:
    """Cumulative repair traffic implied by the monitor's reports.

    Reconstruction bytes are recorded directly; each remirrored
    superchunk moves one superchunk of payload from sender to receiver.
    """
    total = 0
    layout = getattr(monitor.dfs, "layout", None)
    superchunk_size = layout.spec.superchunk_size if layout is not None else 0
    for report in monitor.reports:
        total += report.bytes_reconstructed
        total += len(report.remirrored) * superchunk_size
    return total


def cluster_snapshot(dfs: Any, now: Optional[float] = None) -> dict:
    """One-shot metrics snapshot of the whole cluster."""
    metrics = cluster_metrics(dfs)
    return metrics.as_dict(now=now if now is not None else dfs.sim.now)
