"""Deterministic, seedable fault injection for simulated clusters.

Any workload or experiment can run under churn reproducibly: a
:class:`FaultSchedule` is a declarative, time-sorted list of
:class:`Fault` records (disk failure at t, node crash/restart, transient
NIC degradation, Lstor loss), and a :class:`FaultInjector` installs the
schedule as a simulation process that applies each fault at its instant.
Two runs with the same cluster seed and the same schedule produce
bit-identical histories -- the property the chaos soak asserts.

Fault kinds and their semantics:

``disk_fail``
    The target DataNode's disk dies (in-flight and future I/O raises
    :class:`~repro.errors.DiskFailedError`).  The heartbeat detector
    notices and triggers recovery.
``disk_replace``
    The target DataNode's disk is swapped for an empty one (content
    gone, head at zero).  Pair with a monitor rejoin to readmit it.
``node_crash``
    The target server fails wholesale: every disk on it dies and its
    DataNodes stop serving.
``node_restart``
    The crashed server comes back with replaced disks.  When the
    injector was given a monitor, each DataNode re-enters through
    :meth:`~repro.core.monitor.ClusterMonitor.rejoin` (wiped media,
    back into the layout, quarantine release), which refuses a restart
    that comes before recovery re-homed the disk; without a monitor the
    DataNodes are just marked alive again.
``nic_degrade``
    The target node's primary NIC runs at ``factor`` of its rates for
    ``duration`` seconds, then restores -- a transient link fault.
    In-flight flows are re-fair-shared at both edges.
``lstor_fail``
    The target DataNode's (primary) Lstor dies: parity is gone but the
    disk keeps serving -- the paper's "Lstor loss" case, where RAIDP
    degrades to plain 2-way replication for that disk.

Targets are DataNode names for disk/Lstor faults and server (node)
names for node/NIC faults; for single-disk servers the two coincide.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.sim.engine import Process
from repro.units import HOURS_PER_YEAR

FAULT_KINDS = (
    "disk_fail",
    "disk_replace",
    "node_crash",
    "node_restart",
    "nic_degrade",
    "lstor_fail",
)


class FaultError(ReproError):
    """A fault schedule is malformed or targets something unknown."""


@dataclass(frozen=True, order=True)
class Fault:
    """One scheduled fault.  Ordering is by time (schedule order)."""

    at: float
    kind: str
    target: str
    #: ``nic_degrade`` only: rate multiplier in (0, 1] and how long the
    #: degradation lasts before the NIC restores.
    factor: float = 1.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise FaultError("fault time must be non-negative")
        if self.kind == "nic_degrade":
            if not (0 < self.factor <= 1):
                raise FaultError("nic_degrade factor must be in (0, 1]")
            if self.duration <= 0:
                raise FaultError("nic_degrade needs a positive duration")


@dataclass(frozen=True)
class InjectionRecord:
    """What the injector actually did, at the simulated instant it did it."""

    at: float
    fault: Fault
    note: str = ""


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted fault plan."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(sorted(self.faults)))

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def validate(self, dfs) -> None:
        """Check every target resolves against ``dfs`` before running."""
        datanode_names = {dn.name for dn in dfs.datanodes}
        node_names = {node.name for node in dfs.cluster.nodes}
        for fault in self.faults:
            if fault.kind in ("node_crash", "node_restart", "nic_degrade"):
                if fault.target not in node_names and fault.target not in datanode_names:
                    raise FaultError(
                        f"{fault.kind} targets unknown node {fault.target!r}"
                    )
            elif fault.target not in datanode_names:
                raise FaultError(
                    f"{fault.kind} targets unknown datanode {fault.target!r}"
                )


class FaultInjector:
    """Applies a :class:`FaultSchedule` to a cluster as a sim process."""

    def __init__(self, dfs, schedule: FaultSchedule, monitor=None) -> None:
        self.dfs = dfs
        self.sim = dfs.sim
        self.schedule = schedule
        self.monitor = monitor
        self.injected: List[InjectionRecord] = []
        self._saved_rates: dict = {}
        self._process: Optional[Process] = None
        schedule.validate(dfs)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Install the schedule walker; returns its process."""
        if self._process is not None:
            raise FaultError("injector already started")
        self._process = self.sim.process(self._runner(), name="fault-injector")
        return self._process

    @property
    def done(self) -> bool:
        return self._process is not None and self._process.triggered

    def _runner(self) -> Generator:
        for fault in self.schedule:
            delay = fault.at - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            note = self._apply(fault)
            self.injected.append(InjectionRecord(self.sim.now, fault, note))
            trace = self.sim.trace
            if trace.enabled:
                trace.instant(
                    "fault", fault.kind, self.sim.now,
                    target=fault.target, note=note,
                )
        return len(self.injected)

    # ------------------------------------------------------------------
    # Target resolution.
    # ------------------------------------------------------------------
    def _datanode(self, name: str):
        return self.dfs.namenode.datanode(name)

    def _node(self, name: str):
        for node in self.dfs.cluster.nodes:
            if node.name == name:
                return node
        # Allow naming a node by one of its DataNodes (multi-disk servers).
        return self._datanode(name).node

    def _datanodes_on(self, node) -> list:
        return [dn for dn in self.dfs.datanodes if dn.node is node]

    # ------------------------------------------------------------------
    # Application.
    # ------------------------------------------------------------------
    def _apply(self, fault: Fault) -> str:
        if fault.kind == "disk_fail":
            datanode = self._datanode(fault.target)
            datanode.disk.fail()
            return f"disk {datanode.disk.name} failed"
        if fault.kind == "disk_replace":
            datanode = self._datanode(fault.target)
            datanode.disk.repair()
            return f"disk {datanode.disk.name} replaced"
        if fault.kind == "node_crash":
            node = self._node(fault.target)
            node.fail()
            return f"node {node.name} crashed ({len(node.disks)} disks down)"
        if fault.kind == "node_restart":
            node = self._node(fault.target)
            node.restart()
            rejoined = []
            for datanode in self._datanodes_on(node):
                if self.monitor is not None:
                    self.monitor.rejoin(datanode)
                else:
                    datanode.alive = True
                rejoined.append(datanode.name)
            return f"node {node.name} restarted; rejoined {rejoined}"
        if fault.kind == "nic_degrade":
            node = self._node(fault.target)
            nic = node.primary_nic
            self._saved_rates.setdefault(nic, (nic.tx_rate, nic.rx_rate))
            switch = self.dfs.switch
            switch.set_nic_rates(
                nic, nic.tx_rate * fault.factor, nic.rx_rate * fault.factor
            )
            self.sim.process(
                self._restore_nic(nic, fault.duration),
                name=f"nic-restore:{nic.name}",
            )
            return (
                f"nic {nic.name} degraded to {fault.factor:.2f}x "
                f"for {fault.duration:g}s"
            )
        if fault.kind == "lstor_fail":
            datanode = self._datanode(fault.target)
            datanode.lstors.primary.fail()
            return f"lstor {datanode.lstors.primary.name} failed"
        raise FaultError(f"unknown fault kind {fault.kind!r}")  # pragma: no cover

    def _restore_nic(self, nic, duration: float) -> Generator:
        yield self.sim.timeout(duration)
        tx_rate, rx_rate = self._saved_rates.pop(nic)
        self.dfs.switch.set_nic_rates(nic, tx_rate, rx_rate)
        return None


# ----------------------------------------------------------------------
# Seeded schedule construction.
# ----------------------------------------------------------------------
def chaos_schedule(
    dfs,
    seed: int,
    window: Tuple[float, float] = (2.0, 10.0),
    singles: int = 1,
    doubles: int = 1,
    node_crashes: int = 1,
    nic_degrades: int = 1,
    lstor_losses: int = 1,
    restart_delay: float = 4.0,
    min_gap: float = 3.5,
) -> FaultSchedule:
    """A randomized-but-seeded chaos plan over ``dfs``'s layout.

    Deterministic given (cluster, seed): victims are drawn from the
    sorted disk list with :class:`random.Random`.  The plan guarantees:

    - ``doubles`` simultaneous failures of superchunk-*sharing* pairs
      (the Lstor-reconstruction path),
    - ``singles`` independent single-disk failures and ``node_crashes``
      whole-node crash + restart cycles (restart ``restart_delay`` after
      the crash -- long enough for detection and recovery, so the
      restart exercises the wiped-media rejoin path),
    - victims are pairwise distinct, and Lstor losses strike disks that
      keep *working* (parity gone, data still served),
    - fault instants are spread across ``window`` so they land while
      traffic is active, and *detectable* faults (disk failures, node
      crashes) are at least ``min_gap`` apart so independent failures
      are never co-detected as one correlated group -- only the
      intentional same-instant sharing pairs exercise the double-failure
      path.  Three overlapping disk losses would exceed RAIDP's
      double-failure design point.
    """
    rng = random.Random(seed)
    layout = dfs.layout
    disks = sorted(layout.disks)
    lo, hi = window

    def when() -> float:
        return round(rng.uniform(lo, hi), 3)

    # Lay out the detectable instants constructively -- i*min_gap plus a
    # sorted random jitter keeps every pair at least min_gap apart --
    # then shuffle which fault gets which instant.
    need = doubles + singles + node_crashes
    span = hi - lo
    slack = span - max(need - 1, 0) * min_gap
    if slack < 0:
        raise FaultError(
            f"window {window} too narrow for {need} detectable faults "
            f"separated by min_gap={min_gap:g}"
        )
    offsets = sorted(rng.uniform(0, slack) for _ in range(need))
    detectable = [round(lo + i * min_gap + offsets[i], 3) for i in range(need)]
    rng.shuffle(detectable)

    def when_detectable() -> float:
        return detectable.pop()

    victims: set = set()
    faults: List[Fault] = []

    # Sharing pairs first (they constrain each other the most).
    for _ in range(doubles):
        candidates = [
            (a, b)
            for i, a in enumerate(disks)
            for b in disks[i + 1 :]
            if a not in victims
            and b not in victims
            and layout.shared(a, b) is not None
        ]
        if not candidates:
            raise FaultError("no unused sharing pair left for a double failure")
        a, b = rng.choice(candidates)
        victims.update((a, b))
        at = when_detectable()
        faults.append(Fault(at=at, kind="disk_fail", target=a))
        faults.append(Fault(at=at, kind="disk_fail", target=b))

    def pick_free() -> str:
        free = [d for d in disks if d not in victims]
        if not free:
            raise FaultError("every disk is already a victim")
        choice = rng.choice(free)
        victims.add(choice)
        return choice

    for _ in range(singles):
        faults.append(
            Fault(at=when_detectable(), kind="disk_fail", target=pick_free())
        )

    for _ in range(node_crashes):
        target = pick_free()
        node_name = layout.domain_of(target) or target
        at = when_detectable()
        faults.append(Fault(at=at, kind="node_crash", target=node_name))
        faults.append(
            Fault(at=at + restart_delay, kind="node_restart", target=node_name)
        )

    # Lstor losses and NIC degradations strike *surviving* disks/nodes so
    # they degrade service without losing data.
    survivors = [d for d in disks if d not in victims]
    for _ in range(lstor_losses):
        if not survivors:
            break
        faults.append(
            Fault(at=when(), kind="lstor_fail", target=rng.choice(survivors))
        )
    for _ in range(nic_degrades):
        if not survivors:
            break
        target = rng.choice(survivors)
        node_name = layout.domain_of(target) or target
        faults.append(
            Fault(
                at=when(),
                kind="nic_degrade",
                target=node_name,
                factor=round(rng.uniform(0.05, 0.25), 3),
                duration=round(rng.uniform(1.0, 3.0), 3),
            )
        )
    return FaultSchedule(tuple(faults))


# ----------------------------------------------------------------------
# Fleet failure-model parameters.
#
# Only the long-horizon durability engine (:mod:`repro.analysis.montecarlo`,
# years-scale fleet statistics) consumes these; the in-simulator fault
# injector above (seconds-scale chaos under live traffic) takes explicit
# schedules and reads none of them.  They live beside it so "AFR 4%,
# 2-week scrub cadence, correlated rack bursts" is one vocabulary for
# anything that fails disks.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiskLifetimeModel:
    """Permanent disk failures: Weibull lifetimes pinned to a target AFR.

    ``weibull_shape == 1.0`` is the exponential (constant-hazard) special
    case; ``< 1`` models infant mortality, ``> 1`` wear-out -- the three
    regimes the disk-population literature (Pinheiro et al., Schroeder &
    Gibson) fits field traces with.  Rather than expose the unintuitive
    Weibull scale directly, the scale is derived so the probability that
    a fresh disk fails within its first year equals ``afr`` for *any*
    shape, so sweeping the shape changes failure clustering over a
    disk's life without changing the headline failure rate.
    """

    #: Annualized failure rate of a fresh disk (fraction in [0, 1)).
    afr: float = 0.02
    #: Weibull shape parameter (1.0 = memoryless/exponential).
    weibull_shape: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.afr < 1.0:
            raise FaultError(f"afr must be in (0, 1), got {self.afr}")
        if self.weibull_shape <= 0.0:
            raise FaultError("weibull_shape must be positive")

    @property
    def scale_hours(self) -> float:
        """Weibull scale such that P(lifetime < 1 year) == afr."""
        return HOURS_PER_YEAR / (-math.log(1.0 - self.afr)) ** (
            1.0 / self.weibull_shape
        )

    def sample_lifetimes(
        self, rng: "np.random.Generator", count: int
    ) -> "np.ndarray":
        """``count`` independent lifetimes (hours) from the model."""
        if self.weibull_shape == 1.0:
            return rng.exponential(self.scale_hours, size=count)
        return self.scale_hours * rng.weibull(self.weibull_shape, size=count)


@dataclass(frozen=True)
class LatentErrorModel:
    """Latent sector errors interacting with a periodic scrubber.

    Errors develop silently at ``rate_per_disk_year`` and are detected
    and repaired by the scrub pass that next reads them; the scrubber is
    only this cadence (the simulator runs none).  What durability cares
    about is the probability that a *rebuild* read -- issued at an
    effectively uniform point inside a scrub interval -- hits an error
    the scrubber has not cleaned yet: the classic rep-2 "second copy has
    a bad sector" loss path.
    """

    #: Rate at which a disk develops undetected sector errors (per year).
    rate_per_disk_year: float = 0.3
    #: Scrub cycle length: every block is re-read and verified this often.
    scrub_interval_hours: float = 14 * 24.0

    def __post_init__(self) -> None:
        if self.rate_per_disk_year < 0:
            raise FaultError("latent error rate must be non-negative")
        if self.scrub_interval_hours <= 0:
            raise FaultError("scrub interval must be positive")

    def block_read_error_probability(self, block_fraction: float) -> float:
        """P(a specific block's rebuild read hits a latent error).

        ``block_fraction`` is the block's share of the disk's data; each
        latent error is assumed to corrupt one block, so the expected
        number of errors on the block is (mean errors present) x
        (block share), and presence follows the Poisson complement.
        The mean errors present under periodic scrubbing is r*T/2
        (uniform exposure age over the interval).
        """
        mean_present = (
            self.rate_per_disk_year
            / HOURS_PER_YEAR
            * self.scrub_interval_hours
            / 2.0
        )
        return -math.expm1(-mean_present * block_fraction)


@dataclass(frozen=True)
class CorrelatedFailureModel:
    """Rack-correlated events: transient outages and failure bursts.

    Outages hide a rack (power/switch loss -- nothing is destroyed; the
    paper's s2 availability concession).  Bursts *destroy*: a shared
    PDU surge or bad firmware batch permanently fails each disk in the
    struck rack independently with ``burst_kill_probability`` -- and any
    co-located parity device (RAIDP's Lstor) with it, which is exactly
    the correlated path that separates intra-rack from cross-rack
    redundancy placements.
    """

    #: Transient whole-rack outages per rack per year.
    rack_outage_rate_per_year: float = 0.25
    #: Hours until an outaged rack returns.
    rack_outage_hours: float = 4.0
    #: Correlated destructive bursts per rack per year.
    burst_rate_per_rack_year: float = 0.02
    #: P(each disk/Lstor in the struck rack dies in the burst).
    burst_kill_probability: float = 0.08

    def __post_init__(self) -> None:
        if min(self.rack_outage_rate_per_year, self.burst_rate_per_rack_year) < 0:
            raise FaultError("correlated failure rates must be non-negative")
        if self.rack_outage_hours <= 0:
            raise FaultError("rack outage duration must be positive")
        if not 0.0 <= self.burst_kill_probability <= 1.0:
            raise FaultError("burst kill probability must be in [0, 1]")


@dataclass(frozen=True)
class RepairModel:
    """How fast and how eagerly the fleet repairs permanent losses.

    ``lazy_threshold``/``lazy_max_wait_hours`` implement lazy recovery:
    rebuilds are deferred until enough disks are pending to batch (or a
    deadline passes), trading a longer blocks-at-risk exposure for fewer
    spurious rebuilds of transiently-absent disks.  The concurrency cap
    models the fleet's shared repair bandwidth: when more disks are dead
    than ``concurrent_rebuilds``, completions queue behind it.
    """

    #: Hours from failure to the monitor declaring the disk dead.
    detection_hours: float = 0.25
    #: Hours to re-replicate one disk at full repair bandwidth.
    disk_rebuild_hours: float = 12.0
    #: Fleet-wide simultaneous rebuild slots (repair-bandwidth cap).
    concurrent_rebuilds: int = 8
    #: Pending-disk count that triggers a (lazy) rebuild batch.
    lazy_threshold: int = 1
    #: Ceiling on lazy deferral for a pending disk.
    lazy_max_wait_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.detection_hours < 0 or self.lazy_max_wait_hours < 0:
            raise FaultError("repair delays must be non-negative")
        if self.disk_rebuild_hours <= 0:
            raise FaultError("disk_rebuild_hours must be positive")
        if self.concurrent_rebuilds < 1:
            raise FaultError("need at least one rebuild slot")
        if self.lazy_threshold < 1:
            raise FaultError("lazy_threshold must be >= 1")
