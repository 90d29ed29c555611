"""Durability and availability under failures (paper §2, "Failure Domains").

The paper's claim: RAIDP is *less available* than triplication or erasure
coding -- a rack failure can take one replica *and* its Lstor offline
together -- but *on par in durability*, because a rack failure destroys
nothing: data and local erasure codes come back when power does.  This
module quantifies both sides:

- :func:`mttdl_*` -- classic analytic mean-time-to-data-loss estimates
  from disk AFR and rebuild times.
- :class:`FailureSimulator` -- a seeded Monte-Carlo over a racked
  cluster: permanent disk failures (destroy data) and transient rack
  outages (hide it), scoring data-loss and unavailability events per
  scheme.

Both treat a redundancy scheme abstractly by its loss predicate, so the
comparison covers 2-way/3-way replication, RAIDP with k Lstors, and n+2
erasure coding on the same event streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

HOURS_PER_YEAR = 24 * 365


# ----------------------------------------------------------------------
# Analytic MTTDL (standard Markov-chain approximations).
# ----------------------------------------------------------------------
def mttdl_replication(
    replicas: int, disk_mttf_hours: float, rebuild_hours: float
) -> float:
    """MTTDL of one replica group under independent exponential failures.

    The classic chain: all ``replicas`` copies must fail within each
    other's rebuild windows.  MTTDL ~= MTTF * (MTTF / rebuild)^(r-1) / r!.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    mttdl = disk_mttf_hours
    for stage in range(1, replicas):
        mttdl *= disk_mttf_hours / (rebuild_hours * (stage + 1))
    return mttdl


def mttdl_raidp(
    disk_mttf_hours: float,
    rebuild_hours: float,
    lstors_per_disk: int = 1,
    lstor_mttf_hours: Optional[float] = None,
) -> float:
    """MTTDL of a RAIDP superchunk group (2 replicas + k local parities).

    Data dies only if both replicas fail *and* the parity chain cannot
    cover the loss: with k Lstors the group tolerates k+1 overlapping
    disk failures, so the dominant loss path is k+2 disk failures inside
    one rebuild window, slightly degraded by Lstor unavailability.
    """
    base = mttdl_replication(2 + lstors_per_disk, disk_mttf_hours, rebuild_hours)
    if lstor_mttf_hours is None:
        return base
    # An Lstor dead at the wrong moment removes one level of tolerance;
    # weight the two regimes by the Lstor's availability.
    lstor_unavail = min(rebuild_hours / lstor_mttf_hours, 1.0)
    degraded = mttdl_replication(2, disk_mttf_hours, rebuild_hours)
    return 1.0 / (lstor_unavail / degraded + (1 - lstor_unavail) / base)


def mttdl_erasure(
    n: int, k: int, disk_mttf_hours: float, rebuild_hours: float
) -> float:
    """MTTDL of one n+k stripe: k+1 failures within rebuild windows.

    Uses the same chain as replication but with the stripe width scaling
    the exposure: each stage has (n + k - stage) disks at risk.
    """
    mttdl = disk_mttf_hours / (n + k)
    for stage in range(1, k + 1):
        mttdl *= disk_mttf_hours / (rebuild_hours * (n + k - stage))
    # Normalize: mttdl above is for the first failure anywhere in the
    # stripe; multiply back to per-stripe time scale.
    return mttdl * (n + k)


# ----------------------------------------------------------------------
# Monte-Carlo over a racked cluster.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetSpec:
    """The simulated fleet and its failure statistics."""

    num_racks: int = 8
    disks_per_rack: int = 4
    #: Annualized failure rate of a disk (permanent, destroys contents).
    disk_afr: float = 0.04
    #: Annualized rate of whole-rack outages (transient, hides contents).
    rack_outage_rate: float = 1.0
    #: Hours to restore a rack outage.
    rack_outage_hours: float = 4.0
    #: Hours to re-replicate after a permanent disk loss.
    rebuild_hours: float = 12.0
    years: float = 5.0

    @property
    def num_disks(self) -> int:
        return self.num_racks * self.disks_per_rack


@dataclass
class SchemeOutcome:
    """Monte-Carlo tallies for one redundancy scheme."""

    name: str
    trials: int = 0
    data_loss_events: int = 0
    unavailability_events: int = 0

    @property
    def loss_probability(self) -> float:
        return self.data_loss_events / self.trials if self.trials else 0.0

    @property
    def unavailability_probability(self) -> float:
        return self.unavailability_events / self.trials if self.trials else 0.0


class FailureSimulator:
    """Seeded Monte-Carlo: disks fail permanently, racks blink out.

    One *trial* simulates ``spec.years`` of one datum's life under each
    scheme, with placements drawn once per trial:

    - ``rep2`` / ``rep3``: replicas on distinct racks.
    - ``raidp``: two replicas on distinct racks; each replica's Lstor
      lives in the *same rack* as its disk (the paper's §2 caveat).
    - ``ec``: an n+2 stripe spread over n+2 distinct racks.

    *Data loss*: the scheme's redundancy is destroyed faster than
    rebuilds replace it.  *Unavailability*: at some instant no intact,
    online copy (or decodable set) exists, though data survives.
    """

    def __init__(self, spec: Optional[FleetSpec] = None, seed: int = 0xD15C) -> None:
        self.spec = spec or FleetSpec()
        self._rng = random.Random(seed)

    # -- event stream ---------------------------------------------------
    def _poisson_times(self, rate_per_year: float, years: float) -> List[float]:
        """Event times (hours) of a Poisson process over the horizon."""
        times = []
        t = 0.0
        horizon = years * HOURS_PER_YEAR
        hourly = rate_per_year / HOURS_PER_YEAR
        if hourly <= 0:
            return times
        while True:
            t += self._rng.expovariate(hourly)
            if t >= horizon:
                return times
            times.append(t)

    def _trial_events(self) -> Tuple[List[Tuple[float, int]], List[Tuple[float, int]]]:
        """(disk permanent failures, rack outage starts) for one trial."""
        spec = self.spec
        disk_failures = []
        for disk in range(spec.num_disks):
            for t in self._poisson_times(spec.disk_afr, spec.years):
                disk_failures.append((t, disk))
        rack_outages = []
        for rack in range(spec.num_racks):
            for t in self._poisson_times(
                spec.rack_outage_rate / spec.num_racks, spec.years
            ):
                rack_outages.append((t, rack))
        return sorted(disk_failures), sorted(rack_outages)

    def _rack_of(self, disk: int) -> int:
        return disk // self.spec.disks_per_rack

    def _distinct_rack_disks(self, count: int) -> List[int]:
        racks = self._rng.sample(range(self.spec.num_racks), count)
        return [
            rack * self.spec.disks_per_rack
            + self._rng.randrange(self.spec.disks_per_rack)
            for rack in racks
        ]

    # -- per-scheme predicates -------------------------------------------
    def _judge(
        self,
        holders: Sequence[int],
        tolerance: int,
        needed_online: int,
        local_parity_racks: Sequence[int],
        disk_failures: List[Tuple[float, int]],
        rack_outages: List[Tuple[float, int]],
    ) -> Tuple[bool, bool]:
        """(data_lost, ever_unavailable) for one placement.

        ``tolerance``: how many of the holders may be *permanently* dead
        at once before data is gone (rebuilds restore one per window).
        ``needed_online``: how many holders must be simultaneously online
        for the datum to be readable.  ``local_parity_racks``: the rack
        of each holder's co-located parity device (RAIDP's Lstor),
        aligned with ``holders``; empty for schemes without one.

        The co-located parity carries the paper's §2 caveat: while its
        rack is dark the assist is disabled -- the tolerance it provides
        does not count at that instant, and a parity-path rebuild (one
        running while another holder is already dead) stalls for the
        duration of the overlap.  An outage never *destroys* the parity,
        so the caveat costs availability, not durability, unless a
        further failure lands inside the widened window.
        """
        spec = self.spec
        horizon = spec.years * HOURS_PER_YEAR
        holders = list(holders)
        parity_racks = list(local_parity_racks)
        outages = [
            (start, min(start + spec.rack_outage_hours, horizon), rack)
            for start, rack in rack_outages
        ]

        def rack_dark(rack: int, time: float) -> bool:
            return any(s <= time < e for s, e, r in outages if r == rack)

        def dark_overlap(rack: int, start: float, end: float) -> float:
            """Hours of [start, end) during which ``rack`` is dark."""
            total = 0.0
            for s, e, r in outages:
                if r == rack:
                    total += max(0.0, min(end, e) - max(start, s))
            return total

        # -- durability: permanent failures vs (possibly darkened) assist
        dead_until: Dict[int, float] = {}
        dead_intervals: Dict[int, List[Tuple[float, float]]] = {
            holder: [] for holder in holders
        }
        data_lost = False
        loss_time = horizon
        for time, disk in disk_failures:
            if disk not in holders:
                continue
            overlapping = [
                d for d, until in dead_until.items() if until > time and d != disk
            ]
            effective = tolerance
            if parity_racks:
                # Assists whose racks are dark right now cannot cover
                # this failure; plain replication tolerance remains.
                dark_assists = sum(
                    1 for rack in parity_racks if rack_dark(rack, time)
                )
                effective = max(len(holders) - 1, tolerance - dark_assists)
            if len(overlapping) + 1 > effective:
                data_lost = True
                loss_time = time
                break
            until = time + spec.rebuild_hours
            if parity_racks and overlapping:
                # Parity-path rebuild (another holder already dead):
                # stalls while the co-located Lstor's rack is dark.
                parity_rack = parity_racks[holders.index(disk)]
                until += dark_overlap(parity_rack, time, until)
            dead_until[disk] = until
            dead_intervals[disk].append((time, min(until, horizon)))

        # -- availability: sweep every offline interval, not just outage
        # starts.  A holder is offline while its rack is dark or while
        # its rebuild window runs -- including instants *between* rack
        # outages.  After a data loss the datum has no availability to
        # score, so the sweep stops at loss_time (this also keeps the
        # partially-populated post-break dead_until out of the verdict).
        offline: List[Tuple[float, float, int]] = []
        for index, holder in enumerate(holders):
            rack = self._rack_of(holder)
            for s, e, r in outages:
                if r == rack and s < loss_time:
                    offline.append((s, min(e, loss_time), index))
            for s, e in dead_intervals[holder]:
                if s < loss_time:
                    offline.append((s, min(e, loss_time), index))
        ever_unavailable = False
        if offline:
            boundaries = sorted({s for s, _e, _h in offline})
            max_offline = len(holders) - needed_online
            for point in boundaries:
                count = len(
                    {h for s, e, h in offline if s <= point < e}
                )
                if count > max_offline:
                    ever_unavailable = True
                    break
        return data_lost, ever_unavailable

    # -- the experiment ----------------------------------------------------
    def run(self, trials: int = 2000, ec_width: int = 6) -> Dict[str, SchemeOutcome]:
        """Simulate all four schemes over shared event streams."""
        if self.spec.num_racks < 4:
            raise ValueError(
                f"an n+2 stripe needs at least 4 racks (n >= 2); the fleet "
                f"has {self.spec.num_racks}"
            )
        # The stripe is clipped to the rack count; its strength must be
        # derived from the *actual* placement width, not the requested
        # one -- a clipped stripe has fewer data disks, not more parity.
        ec_placed = min(ec_width + 2, self.spec.num_racks)
        ec_data = ec_placed - 2
        outcomes = {
            name: SchemeOutcome(name=name)
            for name in ("rep2", "rep3", "raidp", f"ec({ec_width}+2)")
        }
        for _ in range(trials):
            disk_failures, rack_outages = self._trial_events()
            placements = {
                "rep2": (self._distinct_rack_disks(2), 1, 1, []),
                "rep3": (self._distinct_rack_disks(3), 2, 1, []),
                # RAIDP: 2 replicas; Lstors tolerate a second overlapping
                # loss, but live in the replicas' racks.
                "raidp": (
                    (holders := self._distinct_rack_disks(2)),
                    2,
                    1,
                    [self._rack_of(h) for h in holders],
                ),
                f"ec({ec_width}+2)": (
                    self._distinct_rack_disks(ec_placed),
                    2,
                    ec_data,
                    [],
                ),
            }
            for name, (holders, tolerance, needed, parity_racks) in placements.items():
                lost, unavailable = self._judge(
                    holders, tolerance, needed, parity_racks,
                    disk_failures, rack_outages,
                )
                outcome = outcomes[name]
                outcome.trials += 1
                outcome.data_loss_events += int(lost)
                outcome.unavailability_events += int(unavailable)
        return outcomes


def durability_summary(
    disk_mttf_hours: float = 1_000_000.0, rebuild_hours: float = 12.0
) -> Dict[str, float]:
    """Analytic MTTDL (years) of the §2 contenders."""
    return {
        "rep2": mttdl_replication(2, disk_mttf_hours, rebuild_hours) / HOURS_PER_YEAR,
        "rep3": mttdl_replication(3, disk_mttf_hours, rebuild_hours) / HOURS_PER_YEAR,
        "raidp": mttdl_raidp(disk_mttf_hours, rebuild_hours) / HOURS_PER_YEAR,
        "raidp(2 lstors)": mttdl_raidp(
            disk_mttf_hours, rebuild_hours, lstors_per_disk=2
        )
        / HOURS_PER_YEAR,
        "ec(10+2)": mttdl_erasure(10, 2, disk_mttf_hours, rebuild_hours)
        / HOURS_PER_YEAR,
    }
