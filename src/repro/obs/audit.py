"""Redundancy invariant auditor: the paper's state invariants, checked live.

The paper's §2-§3 redundancy argument rests on state invariants the
implementation is supposed to preserve at every instant -- every block
has two replicas *or* is enumerated as degraded/at-risk, each Lstor's
parity covers exactly the live chunks of its tracked disks, remirror
rollback leaves no orphaned superchunks, and the network solver
conserves flows.  Tests assert these at the *end* of a scenario; this
module checks them *throughout*: an :class:`Auditor` probes the cluster
at flight-recorder sample points and on fault/recovery events, raising
structured :class:`AuditViolation` records (fail-fast in tests,
recorded for the chaos health report).

Everything is observer-only: checks read component state, never mutate
it and never touch the schedule, so audited runs are bitwise-identical
to unaudited ones.  Expensive content checks (parity XOR, mirror
equality, replica presence) run only at ``final`` audits where the
cluster is quiescent; per-tick checks are metadata-only.

Violations carry a ``waived`` flag: chaos knows its fault windows
(injection until recovery completion), during which "replica on a dead
node" is the *expected* detection lag rather than a bug.
:meth:`Auditor.waive_between` applies those windows post-hoc so the
acceptance bar is "zero **un-waived** violations".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ContextManager, Dict, List, Optional, Set, Tuple

from repro.errors import AuditError, DfsError, LayoutError
from repro.obs.ambient import Slot

__all__ = [
    "AuditViolation",
    "Auditor",
    "active_auditor",
    "capture",
]

#: Events that trigger the deeper (metadata-graph) checks on top of the
#: cheap per-tick ones.
DEEP_EVENTS = ("detect", "recovered", "final")


@dataclass
class AuditViolation:
    """One invariant failure observed at one instant."""

    check: str
    ts: float
    subject: str
    detail: str
    event: str = "sample"
    waived: bool = False
    waiver: str = ""

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "check": self.check,
            "ts": self.ts,
            "subject": self.subject,
            "detail": self.detail,
            "event": self.event,
        }
        if self.waived:
            record["waived"] = True
            record["waiver"] = self.waiver
        return record


class Auditor:
    """Runs the invariant catalogue against an attached cluster.

    ``fail_fast=True`` (the test posture) raises :class:`AuditError` on
    the first violation; the default records and continues (the chaos
    posture).
    """

    def __init__(self, fail_fast: bool = False) -> None:
        self.fail_fast = fail_fast
        self.violations: List[AuditViolation] = []
        self.checks_run = 0
        self.audits_run = 0
        self._dfs: Optional[Any] = None

    # -- wiring ---------------------------------------------------------
    def attach(self, dfs: Any) -> None:
        """Point the auditor at a cluster facade (duck-typed: each check
        skips what the facade lacks).  Probes are no-ops until attached."""
        self._dfs = dfs

    def on_sample(self, sim: Any, now: float) -> None:
        """Sampler hook signature: cheap checks at every tick."""
        self.audit(sim, now, event="sample")

    # -- the catalogue --------------------------------------------------
    def audit(self, sim: Any, now: float, event: str = "sample") -> List[AuditViolation]:
        """Run the checks appropriate for ``event``; returns new records.

        ``sample`` runs the metadata-cheap subset; ``detect`` /
        ``recovered`` add the layout-graph checks; ``final`` adds the
        content checks (parity XOR, mirror equality, replica presence)
        that require a quiescent cluster.
        """
        dfs = self._dfs
        if dfs is None:
            return []
        before = len(self.violations)
        self.audits_run += 1
        self._check_replication(dfs, now, event)
        self._check_flows(dfs, now, event)
        self._check_disks(dfs, now, event)
        if event in DEEP_EVENTS:
            self._check_layout(dfs, now, event)
            self._check_superchunk_homes(dfs, now, event)
        if event == "final":
            self._check_presence(dfs, now, event)
            self._check_parity(dfs, now, event)
        new = self.violations[before:]
        trace = getattr(sim, "trace", None)
        if trace is not None and trace.enabled:
            trace.instant(
                "audit", event, ts=now, checks=self.checks_run, violations=len(new)
            )
        return new

    # -- waivers and reporting ------------------------------------------
    def waive_between(
        self, windows: List[Tuple[float, float]], reason: str
    ) -> int:
        """Waive violations whose timestamp falls inside any window.

        Chaos passes its (injection, recovery-completion) windows: a
        replica listed on a dead node *during detection lag* is the
        protocol working as designed, not an invariant break.  A
        ``final`` audit looks at a drained cluster, so its findings are
        never waived, whatever the window.  Returns the number of newly
        waived records.
        """
        waived = 0
        for violation in self.violations:
            if violation.waived or violation.event == "final":
                continue
            for start, end in windows:
                if start <= violation.ts <= end:
                    violation.waived = True
                    violation.waiver = reason
                    waived += 1
                    break
        return waived

    def unwaived(self) -> List[AuditViolation]:
        return [v for v in self.violations if not v.waived]

    def summary(self) -> Dict[str, Any]:
        return {
            "audits": self.audits_run,
            "checks": self.checks_run,
            "violations": len(self.violations),
            "unwaived": len(self.unwaived()),
            "records": [v.as_dict() for v in self.violations],
        }

    # -- individual checks ----------------------------------------------
    def _record(
        self, check: str, ts: float, subject: str, detail: str, event: str
    ) -> None:
        violation = AuditViolation(
            check=check, ts=ts, subject=subject, detail=detail, event=event
        )
        self.violations.append(violation)
        if self.fail_fast:
            raise AuditError(f"[{check}] {subject} at t={ts:.3f}: {detail}")

    def _check_replication(self, dfs: Any, now: float, event: str) -> None:
        """Every block is fully replicated or enumerated as degraded.

        Metadata-only: replica lists reference existing datanodes, carry
        no duplicates, never exceed the replication target, and any
        short block shows up in ``under_replicated()``/``lost_blocks()``
        (the lists recovery works from).  Replicas listed on dead nodes
        are flagged -- expected during detection lag, hence waivable.
        """
        namenode = getattr(dfs, "namenode", None)
        if namenode is None:
            return
        self.checks_run += 1
        replication = dfs.config.replication
        degraded = {
            loc.block.block_id for loc in namenode.under_replicated()
        } | {loc.block.block_id for loc in namenode.lost_blocks()}
        for locations in namenode.all_blocks():
            block = locations.block
            replicas = locations.datanodes
            if len(set(replicas)) != len(replicas):
                self._record(
                    "replication", now, block.name,
                    f"duplicate replica entries {replicas}", event,
                )
            if len(replicas) > replication:
                self._record(
                    "replication", now, block.name,
                    f"{len(replicas)} replicas exceed target {replication}",
                    event,
                )
            if len(replicas) < replication and block.block_id not in degraded:
                self._record(
                    "replication", now, block.name,
                    f"short ({len(replicas)}/{replication}) but not "
                    "enumerated as degraded", event,
                )
            for name in replicas:
                try:
                    datanode = namenode.datanode(name)
                except DfsError:
                    self._record(
                        "replication", now, block.name,
                        f"replica on unknown datanode {name}", event,
                    )
                    continue
                if not datanode.alive:
                    self._record(
                        "replica-liveness", now, block.name,
                        f"replica listed on dead datanode {name}", event,
                    )

    def _check_flows(self, dfs: Any, now: float, event: str) -> None:
        """Network-solver flow conservation (delegated to the switch)."""
        switch = getattr(dfs, "switch", None)
        audit = getattr(switch, "audit_flow_conservation", None)
        if audit is None:
            return
        self.checks_run += 1
        for problem in audit():
            self._record("flow-conservation", now, switch.name, problem, event)

    def _check_disks(self, dfs: Any, now: float, event: str) -> None:
        """Per-disk accounting sanity (delegated to each disk)."""
        datanodes = getattr(dfs, "datanodes", None)
        if not datanodes:
            return
        self.checks_run += 1
        for datanode in datanodes:
            audit = getattr(datanode.disk, "audit_state", None)
            if audit is None:
                continue
            for problem in audit():
                self._record("disk-state", now, datanode.disk.name, problem, event)

    def _check_layout(self, dfs: Any, now: float, event: str) -> None:
        """The layout's own invariants (1-sharing, slot tables, caps)."""
        layout = getattr(dfs, "layout", None)
        if layout is None:
            return
        self.checks_run += 1
        try:
            layout.verify()
        except LayoutError as exc:
            self._record("layout", now, "layout", str(exc), event)

    def _check_superchunk_homes(self, dfs: Any, now: float, event: str) -> None:
        """No silently orphaned superchunks after remirror/rollback.

        A superchunk with fewer than two live homes must be *accounted
        for*: frozen (recovery in flight) or named by a degraded block.
        Fires during fault windows (waived by chaos); after recovery
        completes it must be clean.
        """
        layout = getattr(dfs, "layout", None)
        sc_map = getattr(dfs, "map", None)
        if layout is None or sc_map is None:
            return
        self.checks_run += 1
        superchunks = getattr(layout, "_superchunks", None)
        if superchunks is None:
            return
        namenode = getattr(dfs, "namenode", None)
        degraded_scs: Set[int] = set()
        if namenode is not None:
            for loc in namenode.under_replicated():
                if loc.sc_id is not None:
                    degraded_scs.add(loc.sc_id)
            for loc in namenode.lost_blocks():
                if loc.sc_id is not None:
                    degraded_scs.add(loc.sc_id)
        disks = layout.disks
        for sc in superchunks.values():
            live = [d for d in (sc.disk_a, sc.disk_b) if d in disks]
            if len(live) >= 2:
                continue
            if sc_map.is_frozen(sc.sc_id):
                continue  # mid-recovery, intentionally single-homed
            if sc.sc_id in degraded_scs:
                continue  # enumerated: recovery knows about it
            if sc_map.used_slots(sc.sc_id) == 0:
                continue  # empty superchunk: nothing at risk
            self._record(
                "superchunk-orphan", now, f"sc{sc.sc_id}",
                f"{len(live)} live home(s), not frozen and not enumerated "
                "as degraded", event,
            )

    def _check_presence(self, dfs: Any, now: float, event: str) -> None:
        """Alive replicas actually hold their blocks (quiescent only)."""
        namenode = getattr(dfs, "namenode", None)
        if namenode is None:
            return
        self.checks_run += 1
        for locations in namenode.all_blocks():
            for name in locations.datanodes:
                datanode = namenode.datanode(name)
                if datanode.alive and not datanode.has_block(locations.block.name):
                    self._record(
                        "replica-presence", now, locations.block.name,
                        f"alive datanode {name} does not hold the block",
                        event,
                    )

    def _check_parity(self, dfs: Any, now: float, event: str) -> None:
        """Lstor parity covers exactly the live chunks (quiescent only).

        Reuses the cluster's own verifiers -- they already encode the
        guards (dead/evicted datanodes, failed Lstors) -- but converts
        the raise into a structured record.  Parity may trail the data
        only while a write sits between journal append and commit; on a
        quiescent cluster such a write is itself a finding, never a
        reason to skip the check.
        """
        verify_parity = getattr(dfs, "verify_parity", None)
        if verify_parity is None:
            return
        self.checks_run += 1
        for write in dfs.unabsorbed_writes():
            self._record(
                "parity-coverage", now, write,
                "journal record still APPENDED on a quiescent cluster", event,
            )
        try:
            verify_parity()
        except LayoutError as exc:
            self._record("parity-coverage", now, "lstor", str(exc), event)
        verify_mirrors = getattr(dfs, "verify_mirrors", None)
        if verify_mirrors is not None:
            self.checks_run += 1
            try:
                verify_mirrors()
            except LayoutError as exc:
                self._record("mirror-equality", now, "mirrors", str(exc), event)


# Monitor/recovery probe sites consult this on their (rare) events;
# None means auditing is off.
_SLOT: Slot[Auditor] = Slot()


def active_auditor() -> Optional[Auditor]:
    """The ambient auditor (None when auditing is off)."""
    return _SLOT.get()


def capture(fail_fast: bool = False) -> ContextManager[Auditor]:
    """``with capture(fail_fast=True) as auditor:`` -- scoped activation."""
    return _SLOT.capture(Auditor(fail_fast=fail_fast))
