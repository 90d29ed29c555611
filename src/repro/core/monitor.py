"""Cluster monitoring: heartbeats, failure detection, automatic recovery.

HDFS DataNodes heartbeat the NameNode every few seconds; a node silent
past the timeout is declared dead and its blocks re-replicated.  RAIDP
keeps the same machinery (paper §5 inherits it from HDFS) with one twist:
each sweep hands its whole dead set to one recovery, which remirrors
what a survivor still holds and decodes through an Lstor what none does
(:meth:`RecoveryManager.failure_body`).

:class:`ClusterMonitor` runs as simulation processes: one heartbeat
sender per DataNode and one detector loop.  Loops are stoppable so the
event heap can drain (`stop()`), and the detector exposes the recovery
reports it produced for inspection.

Failure-lifecycle semantics (the hardened behavior):

- heartbeats go to the NameNode's node (falling back to the first
  client's node, then to skipping the network charge entirely on
  degenerate single-endpoint clusters),
- the detector *spawns* recoveries as child processes, so a sweep is
  never blocked behind an in-flight recovery -- a second failure during
  a long rebuild is detected on schedule,
- a revived node re-enters through :meth:`rejoin` once recovery has
  re-homed its disk: it re-registers on wiped media, re-enters the
  layout as an empty disk, and leaves the ``_handled`` quarantine so a
  *second* failure of the same node is detectable again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.core.node import RaidpDataNode
from repro.core.recovery import RecoveryManager, RecoveryOptions, RecoveryReport
from repro.errors import ReproError
from repro.faults import FaultError
from repro.hdfs.config import ACK_SIZE
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import healthy_datanode
from repro.obs.audit import active_auditor
from repro.sim.engine import Process
from repro.sim.network import Nic


@dataclass(frozen=True)
class MonitorConfig:
    """Detection cadence.  HDFS defaults are 3 s heartbeats and a 10.5
    minute staleness bound; the staleness bound here is shortened so
    tests and experiments converge quickly -- the protocol is identical."""

    heartbeat_interval: float = 3.0
    dead_after: float = 12.0
    sweep_interval: float = 3.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0 or self.sweep_interval <= 0:
            raise ValueError("intervals must be positive")
        if self.dead_after < self.heartbeat_interval:
            raise ValueError("dead_after must cover at least one heartbeat")


class ClusterMonitor:
    """Heartbeat collection plus the automatic recovery trigger."""

    def __init__(
        self,
        dfs: Any,
        config: Optional[MonitorConfig] = None,
        recovery_options: Optional[RecoveryOptions] = None,
    ) -> None:
        self.dfs = dfs
        self.sim = dfs.sim
        self.config = config or MonitorConfig()
        self.recovery_options = recovery_options or RecoveryOptions()
        self.manager = RecoveryManager(dfs)
        self._last_heartbeat: Dict[str, float] = {}
        self._handled: Set[str] = set()
        self._running = False
        self._processes: List[Process] = []
        self.reports: List[RecoveryReport] = []
        #: Completion time of each entry in ``reports`` (same order) --
        #: the recovery end points of the fault->detect->recover timeline.
        self.report_times: List[float] = []
        self.detected: List[Tuple[float, Tuple[str, ...]]] = []
        #: In-flight recovery child processes (detection never blocks on
        #: them; they are kept so tests and drains can await them).
        self.recoveries: List[Process] = []
        #: (time, dead set, exception) per recovery that failed -- e.g. a
        #: receiver that died mid-remirror.  The next sweep sees the new
        #: casualty and recovers it in turn.
        self.recovery_errors: List[Tuple[float, Tuple[str, ...], ReproError]] = []
        #: (time, name) per node readmitted through :meth:`rejoin`.
        self.rejoined: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        now = self.sim.now
        for datanode in self.dfs.datanodes:
            self._last_heartbeat[datanode.name] = now
            self._processes.append(
                self.sim.process(
                    self._heartbeat_loop(datanode), name=f"hb:{datanode.name}"
                )
            )
        self._processes.append(
            self.sim.process(self._detector_loop(), name="detector")
        )

    def stop(self) -> None:
        """Let the loops drain so the simulation can finish."""
        self._running = False

    # ------------------------------------------------------------------
    # Heartbeats.
    # ------------------------------------------------------------------
    def _heartbeat_target_nic(self, datanode: DataNode) -> Optional[Nic]:
        """NIC the heartbeat RPC lands on: the NameNode's node.

        Falls back to the first client's node (the historical endpoint)
        when the facade does not expose ``namenode_node``, and to None --
        no network charge -- when no endpoint exists at all (a bare
        cluster with neither attribute).  The DataNode collocated with
        the NameNode still charges its loopback flow, keeping every
        node's heartbeat on the same clock.
        """
        node = getattr(self.dfs, "namenode_node", None)
        if node is None:
            clients = getattr(self.dfs, "clients", None)
            if clients:
                node = clients[0].node
        if node is None:
            return None
        return node.primary_nic

    def _heartbeat_loop(self, datanode: DataNode) -> Generator:
        interval = self.config.heartbeat_interval
        while self._running:
            if healthy_datanode(datanode):
                # The heartbeat is a tiny control message; its network
                # cost is negligible and charged as the ack size.
                target_nic = self._heartbeat_target_nic(datanode)
                if target_nic is not None:
                    yield self.dfs.switch.transfer(
                        datanode.node.primary_nic, target_nic, ACK_SIZE
                    )
                self._last_heartbeat[datanode.name] = self.sim.now
            yield self.sim.timeout(interval)
        return None

    # ------------------------------------------------------------------
    # Detection and recovery.
    # ------------------------------------------------------------------
    def _stale_names(self) -> List[str]:
        deadline = self.sim.now - self.config.dead_after
        return [
            name
            for name, beat in self._last_heartbeat.items()
            if beat < deadline and name not in self._handled
        ]

    def _detector_loop(self) -> Generator:
        while self._running:
            yield self.sim.timeout(self.config.sweep_interval)
            stale = self._stale_names()
            if not stale:
                continue
            stale = self._with_doomed_partners(stale)
            self.detected.append((self.sim.now, tuple(sorted(stale))))
            trace = self.sim.trace
            if trace.enabled:
                trace.instant(
                    "recovery", "detect", self.sim.now, dead=sorted(stale)
                )
            auditor = active_auditor()
            if auditor is not None:
                auditor.audit(self.sim, self.sim.now, event="detect")
            # Quarantine *before* spawning: the next sweep (which is not
            # blocked behind this recovery) must not re-detect the set.
            self._handled.update(stale)
            self.recoveries.append(
                self.sim.process(
                    self._handle_failures(stale),
                    name=f"recovery:{'+'.join(sorted(stale))}",
                )
            )
        return None

    def _handle_failures(self, stale: List[str]) -> Generator:
        """Child-process body: recover one dead set.

        Runs concurrently with further detection sweeps.  A recovery
        failing (say, its receiver died mid-remirror) is recorded in
        ``recovery_errors`` rather than crashing the monitor; the next
        sweep detects the new casualty independently.
        """
        trace = self.sim.trace
        t0 = self.sim.now
        dead = tuple(sorted(stale))
        try:
            report = yield from self.manager.failure_body(
                stale, options=self.recovery_options
            )
        except ReproError as exc:
            self.recovery_errors.append((self.sim.now, dead, exc))
        else:
            self.reports.append(report)
            self.report_times.append(self.sim.now)
            auditor = active_auditor()
            if auditor is not None:
                auditor.audit(self.sim, self.sim.now, event="recovered")
            # Remirrors that a stacked failure aborted mid-copy (the
            # metadata rolled back, so the next sweep can retry or
            # degrade gracefully) and superchunks past the design point:
            # the operator should still see them.
            for _entry, exc in report.failed_remirrors:
                self.recovery_errors.append((self.sim.now, dead, exc))
            for _sc_id, exc in report.lost_superchunks:
                self.recovery_errors.append((self.sim.now, dead, exc))
        if trace.enabled:
            # Detection-to-restored window.
            trace.complete(
                "recovery", "window", t0, self.sim.now, dead=sorted(stale)
            )
        return None

    def _with_doomed_partners(self, stale: List[str]) -> List[str]:
        """Expand a dead set with already-unhealthy superchunk partners.

        A simultaneous double failure can straddle the staleness bound by
        a fraction of a heartbeat; treating the halves as two independent
        single failures would make the first recovery read from the other
        (dead) disk.  Any sharing partner that is *currently* unhealthy
        has also stopped heartbeating -- it is doomed to be declared dead
        next sweep anyway -- so it is co-detected now and the pair is
        recovered as one dead set.
        """
        layout = getattr(self.dfs, "layout", None)
        if layout is None:
            return list(stale)
        expanded = list(stale)
        index = 0
        while index < len(expanded):
            name = expanded[index]
            index += 1
            if name not in layout.disks:
                continue
            for sc_id in layout.superchunks_of(name):
                partner = layout.superchunk(sc_id).mirror_of(name)
                if partner in expanded or partner in self._handled:
                    continue
                if not healthy_datanode(self.dfs.namenode.datanode(partner)):
                    expanded.append(partner)
        return expanded

    # ------------------------------------------------------------------
    # Rejoin (the revival path).
    # ------------------------------------------------------------------
    def rejoin(self, datanode: RaidpDataNode) -> Dict[str, List[str]]:
        """Readmit a revived DataNode (node restarted, disk replaced).

        Recovery must already have re-homed everything the disk held (the
        disk left the layout): the node comes back on replaced, empty
        media (fresh parity, clean journal) and re-enters the layout as
        an empty disk, a legal receiver again.  It leaves the
        ``_handled`` quarantine and its staleness clock restarts, so a
        *second* failure is detectable.  Returns the verdict: the
        ``orphans`` the wipe purged.  A rejoin that comes before
        recovery re-homed the disk raises :class:`FaultError`.
        """
        name = datanode.name
        layout = self.dfs.layout
        if name in layout.disks:
            raise FaultError(f"{name} rejoined before recovery re-homed its disk")
        datanode.alive = True
        orphans = datanode.block_report()
        datanode.wipe_storage()
        layout.add_disk(name)
        self._handled.discard(name)
        self._last_heartbeat[name] = self.sim.now
        self.rejoined.append((self.sim.now, name))
        return {"orphans": orphans}
