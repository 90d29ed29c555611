"""The one reader of a cluster's instruments.

Components own their numbers (:mod:`repro.sim.stats`): plain int counts
on ``DiskStats``, datanodes, clients, journals and the switch, a
queue-depth gauge and a latency histogram per disk, an active-flow gauge
on the switch, an outstanding-record gauge per journal.
:func:`read_cluster` walks them at call time and names each one with a
series key -- ``name`` or ``name{label=value}`` with the component's
name as the value (``disk_reads{disk=n3.d0}``,
``journal_appends{journal=...}``, ``client_read_failovers{client=0}``).
Nothing is registered and nothing is copied ahead of time, so there is
nothing to refresh: a reading is as current as the call that took it.
The flight-recorder :class:`~repro.obs.timeseries.Sampler` is the reader
in traffic (one call per tick, written to the trace as counter tracks);
duck-typed, no sim imports.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

#: Exact switch work counters, series name -> ``Switch`` attribute:
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


def read_cluster(
    dfs: Any, monitor: Optional[Any] = None
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Read every instrument of ``dfs`` once: ``(readings, histograms)``.

    ``readings`` maps series key to the current value of a count or
    gauge; ``histograms`` maps series key to the component's *live*
    :class:`~repro.sim.stats.Histogram` (cumulative -- the caller takes
    its own windows).  Passing the :class:`ClusterMonitor` adds the
    repair accounting (``repair_bytes_total``, ``recoveries_total``,
    ``recovery_errors_total``).
    """
    readings: Dict[str, float] = {}
    histograms: Dict[str, Any] = {}
    for datanode in dfs.datanodes:
        disk = datanode.disk
        stats = disk.stats
        label = f"{{disk={disk.name}}}"
        readings["disk_reads" + label] = float(stats.reads)
        readings["disk_writes" + label] = float(stats.writes)
        readings["disk_bytes_read" + label] = float(stats.bytes_read)
        readings["disk_bytes_written" + label] = float(stats.bytes_written)
        readings["disk_seeks" + label] = float(stats.seeks)
        readings["disk_queue_depth" + label] = float(disk.queue_gauge.current)
        histograms["disk_io_latency" + label] = disk.io_latency
        label = f"{{dn={datanode.name}}}"
        readings["dn_blocks_written" + label] = float(datanode.stats_blocks_written)
        readings["dn_blocks_read" + label] = float(datanode.stats_blocks_read)
        lstors = getattr(datanode, "lstors", None)  # RAIDP datanodes only
        if lstors is not None:
            journal = lstors.journal
            label = f"{{journal={journal.name}}}"
            readings["journal_outstanding" + label] = float(
                journal.outstanding_gauge.current
            )
            readings["journal_appends" + label] = float(journal.total_appends)
            readings["journal_clears" + label] = float(journal.total_clears)
            readings["journal_used_bytes" + label] = float(journal.used_bytes)
    for index, client in enumerate(dfs.clients):
        label = f"{{client={index}}}"
        readings["client_pipeline_recoveries" + label] = float(
            client.stats_pipeline_recoveries
        )
        readings["client_read_failovers" + label] = float(client.stats_read_failovers)
        if hasattr(client, "stats_degraded_reads"):  # RAIDP clients only
            readings["client_degraded_reads" + label] = float(
                client.stats_degraded_reads
            )
    switch = dfs.switch
    readings["net_bytes_total"] = float(switch.total_bytes)
    for name, attribute in SWITCH_WORK_COUNTERS.items():
        readings[name] = float(getattr(switch, attribute))
    readings["net_active_flows"] = float(switch.flows_gauge.current)
    # Blocks below their replication target right now: the cluster's
    # exposure to the next failure, read at every tick so the
    # recovery-window exposure curve is visible.
    readings["blocks_at_risk"] = float(len(dfs.namenode.under_replicated()))
    if monitor is not None:
        # Reconstruction bytes are recorded directly; each remirrored
        # superchunk moves one superchunk of payload.
        superchunk_size = dfs.layout.spec.superchunk_size
        readings["repair_bytes_total"] = float(
            sum(
                report.bytes_reconstructed + len(report.remirrored) * superchunk_size
                for report in monitor.reports
            )
        )
        readings["recoveries_total"] = float(len(monitor.reports))
        readings["recovery_errors_total"] = float(len(monitor.recovery_errors))
    return readings, histograms
