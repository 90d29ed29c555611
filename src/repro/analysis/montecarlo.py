"""Long-horizon Monte-Carlo fleet durability engine (paper §2 at scale).

The analytic ladder (:meth:`~repro.analysis.scheme.Scheme.mttdl_hours`)
assumes independent exponential failures; this module is the one
simulator that relaxes it: a fleet of thousands of disks, years of
simulated time, and the failure physics the warehouse-scale durability
literature sweeps -- Weibull disk lifetimes, latent sector errors gated
by the scrub cadence, rack-correlated outage and burst events, and lazy
recovery against a bounded repair-bandwidth pool.  All five §2
contenders (2-way/3-way replication, RAIDP with 1 and 2 Lstors, and n+2
erasure coding) are scored on *shared* event streams, so scheme deltas
are paired comparisons, not independent noise.

Epoch-batch architecture
------------------------
A naive discrete-event simulation spends its time on non-events: disks
*not* failing.  The engine instead works outward from the observation
that everything durability-relevant happens at a sparse set of instants:

1. **Bulk renewal sampling** (numpy, per trial): disk lifetimes are
   drawn for the whole fleet at once; each failing disk is replaced and
   re-drawn in vectorized rounds until the horizon is clear.  10k disks
   x 10 years at 2% AFR is ~2000 failure events -- the arrays stay tiny.
2. **Repair scheduling** (a recurrence): detection delay and lazy
   batching release rebuilds in time order, so a rebuild's slot frees
   when the one released ``concurrent_rebuilds`` earlier completes; only
   the releases that find their slot busy are walked.
3. **Sparse judgment**: data loss is only possible at a failure instant,
   so each scheme is judged exactly there, against the set of
   concurrently-dead disks.  The dead sets are sparse (earlier event,
   event) pairs, so each scheme's judge runs once per trial over arrays
   of per-event counts, and the tallies fold its verdicts in event
   order: bit for bit the floats of a per-event loop.  Placement is
   *not* tracked per group; the engine scores the expected number of
   lost groups combinatorially (uniform distinct-rack placement), which
   is what a per-group simulation converges to, without its memory.
4. **Outage segments**: transient rack outages are merged into maximal
   segments of constant dark-rack sets; availability is integrated per
   segment, again in expectation over placements, counting each one's
   dead disks over the window of events that can be dead at its midpoint.

The expectation-based judgment makes per-trial results smooth (a trial
contributes fractional expected losses rather than a 0/1 indicator), so
nines-of-durability estimates converge with far fewer trials than
indicator counting needs.

Validation: in the independent-exponential, no-LSE, no-burst regime the
engine's loss rate has a closed form (``tests/oracles.py``) that
differs from the classic :func:`~repro.analysis.scheme.mttdl_replication`
ladder only by a documented window-overlap factor; the property test in
``tests/test_montecarlo.py`` pins both.

Determinism: trial ``i`` draws from ``SeedSequence(seed, spawn_key=(i,))``
-- chunked runs (trials 0..4 then 5..9) therefore sample identical
streams as a monolithic run, which is what lets the experiment layer fan
trials out across workers and merge without result drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.scheme import DurabilityModelError, Scheme, default_schemes
from repro.faults import (
    CorrelatedFailureModel,
    DiskLifetimeModel,
    LatentErrorModel,
    RepairModel,
)
from repro.obs.tracer import active_tracer
from repro.units import HOURS_PER_YEAR

__all__ = [
    "Fleet",
    "SchemeReport",
    "DurabilityEngine",
]


# ----------------------------------------------------------------------
# Fleet geometry.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fleet:
    """The simulated disk population and the data it carries.

    ``groups`` is the number of redundancy groups (replica sets /
    stripes) whose durability is scored; it sets the scale of the
    expected-loss accounting and the per-group block size used by the
    latent-error model (a group occupies ``1 / groups_per_disk`` of each
    member disk).
    """

    num_racks: int = 40
    disks_per_rack: int = 250
    disk_capacity_gb: float = 4000.0
    groups: int = 1_000_000

    def __post_init__(self) -> None:
        if self.num_racks < 2:
            raise DurabilityModelError("need at least two racks")
        if self.disks_per_rack < 1:
            raise DurabilityModelError("need at least one disk per rack")
        if self.disk_capacity_gb <= 0:
            raise DurabilityModelError("disk capacity must be positive")
        if self.groups < 1:
            raise DurabilityModelError("need at least one group")

    @property
    def num_disks(self) -> int:
        return self.num_racks * self.disks_per_rack

    def groups_per_disk(self, width: int) -> float:
        """Expected groups with a member on a given disk."""
        return self.groups * width / self.num_disks


# ----------------------------------------------------------------------
# Results.
# ----------------------------------------------------------------------
@dataclass
class SchemeReport:
    """Accumulated Monte-Carlo tallies for one scheme.

    All "expected_*" fields are sums of per-event expectations over the
    placement distribution (see module docstring), not indicator counts.
    """

    name: str
    trials: int = 0
    #: Group-years of exposure scored (groups x years x trials).
    group_years: float = 0.0
    #: Expected groups irrecoverably lost over all trials.
    expected_groups_lost: float = 0.0
    #: Bytes moved by rebuilds, in GB, over all trials.
    repair_gb: float = 0.0
    #: Simulated wall time covered, in days, over all trials.
    sim_days: float = 0.0
    #: Expected group-hours during which a group was unreadable.
    unavailable_group_hours: float = 0.0
    #: Expected group-hours spent below full redundancy.
    at_risk_group_hours: float = 0.0
    #: Groups below full redundancy per timeline bucket, summed over
    #: trials (bucket 0 is the start of the horizon).
    at_risk_timeline: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=float)
    )
    #: Highest per-bucket mean groups-at-risk seen in any single trial.
    peak_groups_at_risk: float = 0.0

    @property
    def loss_rate_per_group_year(self) -> float:
        return self.expected_groups_lost / self.group_years if self.group_years else 0.0

    @property
    def durability_nines(self) -> float:
        """Nines of per-group annual durability, capped at 18 (i.e. a
        measured-zero loss rate reports as 18 nines, not infinity)."""
        rate = self.loss_rate_per_group_year
        return -math.log10(max(rate, 1e-18))

    @property
    def mttdl_years(self) -> float:
        """Per-group mean time to data loss implied by the loss rate."""
        rate = self.loss_rate_per_group_year
        return 1.0 / rate if rate > 0 else math.inf

    @property
    def repair_gb_per_day(self) -> float:
        return self.repair_gb / self.sim_days if self.sim_days else 0.0

    @property
    def unavailability(self) -> float:
        """Expected fraction of group-time spent unreadable."""
        hours = self.group_years * HOURS_PER_YEAR
        return self.unavailable_group_hours / hours if hours else 0.0

    @property
    def availability_nines(self) -> float:
        """Nines of per-group availability, capped at 18 like
        :attr:`durability_nines`."""
        return -math.log10(max(self.unavailability, 1e-18))

    def merge(self, other: "SchemeReport") -> "SchemeReport":
        if other.name != self.name:
            raise DurabilityModelError(
                f"cannot merge {other.name!r} into {self.name!r}"
            )
        timeline = self.at_risk_timeline
        if timeline.size == 0:
            timeline = other.at_risk_timeline.copy()
        elif other.at_risk_timeline.size:
            if other.at_risk_timeline.size != timeline.size:
                raise DurabilityModelError("timeline bucket counts differ")
            timeline = timeline + other.at_risk_timeline
        return SchemeReport(
            name=self.name,
            trials=self.trials + other.trials,
            group_years=self.group_years + other.group_years,
            expected_groups_lost=self.expected_groups_lost
            + other.expected_groups_lost,
            repair_gb=self.repair_gb + other.repair_gb,
            sim_days=self.sim_days + other.sim_days,
            unavailable_group_hours=self.unavailable_group_hours
            + other.unavailable_group_hours,
            at_risk_group_hours=self.at_risk_group_hours
            + other.at_risk_group_hours,
            at_risk_timeline=timeline,
            peak_groups_at_risk=max(
                self.peak_groups_at_risk, other.peak_groups_at_risk
            ),
        )


# ----------------------------------------------------------------------
# Shared probability helpers (also used by the analytic cross-check).
# ----------------------------------------------------------------------
def _binom_tail(q: float, draws: int, k: int) -> float:
    """P(Binomial(draws, q) >= k), exact for the tiny k we use."""
    if k <= 0:
        return 1.0
    if draws < k or q <= 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    head = math.fsum(
        math.comb(draws, j) * q**j * (1.0 - q) ** (draws - j) for j in range(k)
    )
    return max(0.0, 1.0 - head)


def _chain_blocked(q: float, scheme: Scheme) -> float:
    """P(a RAIDP parity-chain decode fails) given per-source badness q.

    The chain reads the ``superchunks_per_disk - 1`` sibling superchunks
    from their surviving replicas; with ``k`` Lstors the decode survives
    ``k - 1`` bad sources (the extra chains cover them), so it is blocked
    when at least ``k`` sources are bad.
    """
    return _binom_tail(q, scheme.superchunks_per_disk - 1, scheme.lstors)


def _per_count(
    counts: np.ndarray, table: Dict[int, float], value: Callable[[int], float]
) -> np.ndarray:
    """``value(count)`` per element of ``counts``; ``table`` memoizes it,
    so each distinct count is evaluated once per run, in Python floats."""
    distinct, index = np.unique(counts, return_inverse=True)
    for count in distinct.tolist():
        if count not in table:
            table[count] = value(count)
    return np.array([table[count] for count in distinct.tolist()])[index]


#: ``judge(dead_others, dead_outside, pairs, remaining_outside, burst,
#: any_dead_lstor) -> (P(group lost), expected unavailable group-hours)``
#: for one group containing the disk that just failed, elementwise over a
#: trial's failure events.  ``dead_outside`` and ``pairs`` (dead pairs on
#: distinct racks) summarize the dead set excluding the failed disk's
#: rack (group members never share it); ``remaining_outside`` is those
#: disks' summed remaining repair time, which prices the expected
#: both-copies-dead overlap window; ``burst`` / ``any_dead_lstor``: the
#: failed disk's / a dead candidate's Lstors died too.
Judge = Callable[..., Tuple[np.ndarray, Union[np.ndarray, float]]]


def _compile_judge(fleet: Fleet, scheme: Scheme, p_block_lse: float) -> Judge:
    """``scheme``'s judge on ``fleet``: the ``kind`` ladder and every
    factor that depends only on the pair run here, once, not per event."""
    other_racks = fleet.num_racks - 1
    disks_per_rack = fleet.disks_per_rack
    # P(one specific member dead) per dead disk outside the rack.
    per_disk = 1.0 / (other_racks * disks_per_rack)
    if scheme.kind == "replication" and scheme.width == 2:
        def judge(
            dead_others: np.ndarray, dead_outside: np.ndarray, pairs: np.ndarray,
            remaining_outside: np.ndarray, burst: np.ndarray, any_dead_lstor: np.ndarray,
        ) -> Tuple[np.ndarray, float]:
            # Partner dead, or the surviving copy's rebuild read hits a
            # latent error the scrubber has not cleaned yet.
            p_partner = dead_outside * per_disk
            return p_partner + (1.0 - p_partner) * p_block_lse, 0.0

    elif scheme.kind == "replication":
        others = scheme.width - 1
        # others == 2: the two other members land on 2 uniform distinct
        # racks among `other_racks`, one uniform disk each; sum over
        # distinct-rack dead pairs.
        pair_ways = math.comb(other_racks, 2) * disks_per_rack**2
        by_count: Dict[int, float] = {}

        def wide(dead_outside: int) -> float:
            # In Python floats: numpy's `**` does not round like C `pow`.
            p_partner = dead_outside * per_disk
            p_but_one = others * p_partner ** (others - 1) * (1.0 - p_partner)
            return p_partner**others + p_but_one * p_block_lse

        def judge(
            dead_others: np.ndarray, dead_outside: np.ndarray, pairs: np.ndarray,
            remaining_outside: np.ndarray, burst: np.ndarray, any_dead_lstor: np.ndarray,
        ) -> Tuple[np.ndarray, float]:
            # rep3+: all other members already dead, or all-but-one dead
            # and the last source read hits a latent error.
            if others != 2:
                return _per_count(dead_outside, by_count, wide), 0.0
            p_partner = dead_outside * per_disk
            p_all = pairs / pair_ways if other_racks > 1 else 0.0
            p_but_one = 2.0 * p_partner * (1.0 - p_partner)
            return p_all + p_but_one * p_block_lse, 0.0

    elif scheme.kind == "erasure":
        members = scheme.width - 1  # other stripe members
        if other_racks < members:
            raise DurabilityModelError("stripe wider than the fleet")
        stripes = math.comb(other_racks, members)
        # P(two specific dead disks are both stripe members): the stripe
        # occupies `members` of the other racks.
        p_rack_pair = (
            math.comb(other_racks - 2, members - 2) / stripes if members >= 2 else 0.0
        )
        p_rack_single = math.comb(other_racks - 1, members - 1) / stripes
        disks_per_rack_sq = disks_per_rack**2
        # At exactly `tolerance` erasures the decode needs all n remaining
        # sources clean; any latent error finishes it.
        p_lse_decode = 1.0 - (1.0 - p_block_lse) ** scheme.needed_online

        def judge(
            dead_others: np.ndarray, dead_outside: np.ndarray, pairs: np.ndarray,
            remaining_outside: np.ndarray, burst: np.ndarray, any_dead_lstor: np.ndarray,
        ) -> Tuple[np.ndarray, float]:
            p_two = pairs * p_rack_pair / disks_per_rack_sq
            p_one = dead_outside * p_rack_single / disks_per_rack
            return p_two + p_one * p_lse_decode, 0.0

    else:
        # raidp: partner dead AND both parity-chain decodes blocked.
        # Chain sources are replicas scattered fleet-wide; a source is
        # bad if its disk is dead or its read hits a latent error -- a
        # function of the dead count alone, so each count decodes once.
        fleet_others = max(fleet.num_disks - 1, 1)
        blocked_at: Dict[int, float] = {}

        def chain(dead_others: int) -> float:
            q = dead_others / fleet_others
            return _chain_blocked(q + (1.0 - q) * p_block_lse, scheme)

        def judge(
            dead_others: np.ndarray, dead_outside: np.ndarray, pairs: np.ndarray,
            remaining_outside: np.ndarray, burst: np.ndarray, any_dead_lstor: np.ndarray,
        ) -> Tuple[np.ndarray, np.ndarray]:
            blocked = _per_count(dead_others, blocked_at, chain)
            side_self = np.where(burst, 1.0, blocked)
            side_partner = np.where(any_dead_lstor, 1.0, blocked)
            p_assist_fail = side_self * side_partner
            # Assist-survivable both-dead windows are *unavailable*:
            # parity decode restores durability, not serving.  Expected
            # overlap hours = sum over dead candidates of their remaining
            # repair time, weighted by the placement probability.
            return (
                dead_outside * per_disk * p_assist_fail,
                remaining_outside * per_disk * (1.0 - p_assist_fail),
            )

    return judge


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, step): element ``o`` of ``counts`` expanded into ``counts[o]``
    entries, in order, each with its step ``0 .. counts[o] - 1``."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _wait_for_slots(release: np.ndarray, slots: int, rebuild: float) -> np.ndarray:
    """Completions of rebuilds released at ``release`` (non-decreasing) into
    ``slots`` slots: ``done[k] = max(release[k], done[k - slots]) + rebuild``
    (``0.0`` before the first ``slots``), as completions are non-decreasing
    too.  The guess that nobody waits holds where a slot is free; the walk
    visits, in index order, exactly the releases that find theirs busy."""
    done = release + rebuild
    busy = np.zeros(release.size, dtype=bool)
    busy[slots:] = release[slots:] < done[:-slots]
    queue = np.flatnonzero(busy).tolist()  # sorted, so already a heap
    while queue:
        k = heappop(queue)
        done[k] = max(release[k], done[k - slots]) + rebuild
        after = k + slots  # its slot's next user, if this delay makes it wait
        if after < release.size and not busy[after] and release[after] < done[k]:
            busy[after] = True
            heappush(queue, after)
    return done


def _fold(addends: np.ndarray) -> float:
    """``total += a`` over ``addends`` in order, from ``0.0``: the same
    rounding sequence as a per-event loop.  ``np.add.accumulate`` is a
    strictly sequential fold; ``np.sum`` would pair terms."""
    return float(np.add.accumulate(addends)[-1]) if addends.size else 0.0


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------
class DurabilityEngine:
    """Seeded long-horizon fleet durability Monte-Carlo.

    One *trial* simulates ``years`` of the whole fleet: permanent disk
    failures (renewal-sampled Weibull lifetimes plus correlated burst
    kills), a repair pipeline with detection lag, lazy batching, and
    bounded concurrency, transient rack outages, and latent-sector-error
    exposure on every rebuild read.  All schemes are judged on the same
    streams.
    """

    def __init__(
        self,
        fleet: Optional[Fleet] = None,
        schemes: Optional[Sequence[Scheme]] = None,
        lifetime: Optional[DiskLifetimeModel] = None,
        latent: Optional[LatentErrorModel] = None,
        correlated: Optional[CorrelatedFailureModel] = None,
        repair: Optional[RepairModel] = None,
        seed: int = 0xD15C,
        timeline_buckets: int = 120,
    ) -> None:
        self.fleet = fleet or Fleet()
        self.schemes = tuple(schemes) if schemes is not None else default_schemes()
        self.lifetime = lifetime or DiskLifetimeModel()
        self.latent = latent or LatentErrorModel()
        self.correlated = correlated or CorrelatedFailureModel()
        self.repair = repair or RepairModel()
        self.seed = seed
        self.timeline_buckets = timeline_buckets
        if timeline_buckets < 1:
            raise DurabilityModelError("need at least one timeline bucket")
        names = [scheme.name for scheme in self.schemes]
        if len(set(names)) != len(names):
            raise DurabilityModelError(f"duplicate scheme names in {names}")
        for scheme in self.schemes:
            if scheme.width > self.fleet.num_racks:
                raise DurabilityModelError(
                    f"scheme {scheme.name!r} needs {scheme.width} racks but "
                    f"the fleet has {self.fleet.num_racks}; shrink the "
                    "stripe or grow the fleet"
                )

    # -- seeding --------------------------------------------------------
    def _trial_rng(self, trial: int) -> np.random.Generator:
        # Per-trial spawn keys: trial i's stream is a pure function of
        # (seed, i), so chunked runs reproduce monolithic runs.
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(trial,))
        )

    # -- event sampling -------------------------------------------------
    def _sample_failures(
        self, rng: np.random.Generator, horizon: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, disks, from_burst) of permanent failures, time-sorted.

        Renewal rounds: every disk draws a lifetime; failing disks are
        replaced (after an approximate detection+rebuild turnaround) and
        re-drawn, vectorized, until no draw lands inside the horizon.
        Burst kills are super-imposed afterwards; they do not reset the
        renewal stream (a second-order effect at realistic burst rates).
        """
        fleet = self.fleet
        turnaround = self.repair.detection_hours + self.repair.disk_rebuild_hours
        times: List[np.ndarray] = []
        disks: List[np.ndarray] = []
        active = np.arange(fleet.num_disks)
        clock = np.zeros(fleet.num_disks)
        while active.size:
            lifetimes = self.lifetime.sample_lifetimes(rng, active.size)
            fail_at = clock[active] + lifetimes
            hit = fail_at < horizon
            active = active[hit]
            fail_at = fail_at[hit]
            if not active.size:
                break
            times.append(fail_at)
            disks.append(active.copy())
            clock[active] = fail_at + turnaround
        n_renewal = sum(chunk.size for chunk in times)
        # Correlated bursts: each strikes one rack, killing every disk
        # in it independently (and the co-located Lstors with them).
        model = self.correlated
        if model.burst_rate_per_rack_year > 0:
            per_rack = model.burst_rate_per_rack_year * horizon / HOURS_PER_YEAR
            counts = rng.poisson(per_rack, fleet.num_racks)
            # One row per burst, in rack order: its time, then one draw
            # per disk in the rack (`uniform(0, horizon)` is `0.0 + horizon * u`).
            draws = rng.random((int(counts.sum()), fleet.disks_per_rack + 1))
            burst, killed = np.nonzero(draws[:, 1:] < model.burst_kill_probability)
            times.append(horizon * draws[burst, 0])
            burst_rack = np.repeat(np.arange(fleet.num_racks), counts)[burst]
            disks.append(burst_rack * fleet.disks_per_rack + killed)
        if not times:
            empty = np.zeros(0)
            return empty, empty.astype(int), empty.astype(bool)
        all_times = np.concatenate(times)
        all_disks = np.concatenate(disks)
        from_burst = np.zeros(all_times.size, dtype=bool)
        from_burst[n_renewal:] = True
        order = np.lexsort((all_disks, all_times))
        return all_times[order], all_disks[order], from_burst[order]

    def _sample_outages(
        self, rng: np.random.Generator, horizon: float
    ) -> List[Tuple[float, float, int]]:
        """(start, end, rack) transient outages, unsorted is fine."""
        model = self.correlated
        if model.rack_outage_rate_per_year <= 0:
            return []
        per_rack = model.rack_outage_rate_per_year * horizon / HOURS_PER_YEAR
        counts = rng.poisson(per_rack, self.fleet.num_racks)
        starts = rng.uniform(0.0, horizon, counts.sum())
        ends = np.minimum(starts + model.rack_outage_hours, horizon)
        racks = np.repeat(np.arange(self.fleet.num_racks), counts)
        return list(zip(starts.tolist(), ends.tolist(), racks.tolist()))

    # -- repair scheduling ----------------------------------------------
    def _schedule_repairs(self, times: np.ndarray) -> np.ndarray:
        """Repair-completion time per failure event.

        Each failure is detected after ``detection_hours``; lazy
        recovery then holds it until ``lazy_threshold`` disks are
        pending or the oldest has waited ``lazy_max_wait_hours``.  The
        released rebuilds, in release order, take the slots of the
        ``concurrent_rebuilds`` pool (:func:`_wait_for_slots`).
        """
        repair = self.repair
        detect = times + repair.detection_hours
        order, release = np.arange(times.size), detect
        if repair.lazy_threshold > 1 and times.size:
            held: List[Tuple[float, int]] = []  # (deadline, idx)
            released: List[Tuple[float, int]] = []  # (release time, idx)
            for idx, at in enumerate(detect.tolist()):
                # Deadline-expired stragglers release before this arrival.
                while held and held[0][0] <= at:
                    released.append(held.pop(0))
                held.append((at + repair.lazy_max_wait_hours, idx))
                if len(held) == repair.lazy_threshold:
                    # A full batch releases now, this arrival last.
                    released.extend((at, waiting) for _deadline, waiting in held)
                    held.clear()
            released.extend(held)  # the last stragglers, at their deadlines
            release, order = (np.array(column) for column in zip(*released))
        done = np.empty(times.size)
        done[order] = _wait_for_slots(
            release, repair.concurrent_rebuilds, repair.disk_rebuild_hours
        )
        return done

    # -- availability over outage segments --------------------------------
    def _outage_segments(
        self, outages: List[Tuple[float, float, int]]
    ) -> List[Tuple[float, float, Tuple[int, ...]]]:
        """Maximal (start, end, dark_racks) segments with >=1 dark rack."""
        if not outages:
            return []
        boundaries: List[Tuple[float, int, int]] = []
        for start, end, rack in outages:
            boundaries.append((start, 1, rack))
            boundaries.append((end, -1, rack))
        boundaries.sort()
        segments: List[Tuple[float, float, Tuple[int, ...]]] = []
        dark: Dict[int, int] = {}
        prev = boundaries[0][0]
        for when, delta, rack in boundaries:
            if dark and when > prev:
                segments.append((prev, when, tuple(sorted(dark))))
            prev = when
            count = dark.get(rack, 0) + delta
            if count <= 0:
                dark.pop(rack, None)
            else:
                dark[rack] = count
        return segments

    def _segment_unreadable(
        self, scheme: Scheme, dark_count: int, q_dead: float
    ) -> float:
        """P(a group is unreadable) while ``dark_count`` racks are dark.

        Racks are exchangeable under uniform placement: the number of
        the group's racks that are dark is hypergeometric; members in
        lit racks are independently mid-repair with probability
        ``q_dead``.  Unreadable when fewer than ``needed_online``
        members remain online.
        """
        fleet = self.fleet
        w = scheme.width
        need_offline = w - scheme.needed_online + 1
        total = math.comb(fleet.num_racks, w)
        p_unreadable = 0.0
        for j in range(min(dark_count, w) + 1):
            ways = math.comb(dark_count, j) * math.comb(
                fleet.num_racks - dark_count, w - j
            )
            if ways == 0:
                continue
            p_j = ways / total
            still_needed = need_offline - j
            p_unreadable += p_j * _binom_tail(q_dead, w - j, still_needed)
        return p_unreadable

    # -- one trial --------------------------------------------------------
    def _simulate_trial(
        self, trial: int, years: float,
        compiled: List[Tuple[Scheme, float, float, Judge]],
        unreadable: Dict[Tuple[int, int], List[float]],
    ) -> List[Tuple[float, float, float, float, np.ndarray]]:
        """Per compiled scheme, one trial's (expected_groups_lost,
        unavailable_group_hours, at_risk_group_hours, repair_gb, at-risk
        timeline).  ``unreadable`` memoizes the expected unreadable groups
        of an outage segment by ``(dark racks, lit dead disks)`` across
        the trials of one run.
        """
        fleet = self.fleet
        horizon = years * HOURS_PER_YEAR
        rng = self._trial_rng(trial)
        times, disks, bursts = self._sample_failures(rng, horizon)
        racks = disks // fleet.disks_per_rack
        done = self._schedule_repairs(times)
        segments = self._outage_segments(self._sample_outages(rng, horizon))
        trace = active_tracer()
        n = times.size

        # --- the dead set, as sparse (earlier event j, event i) pairs ---
        # j's disk is dead at i iff j < i <= last[j]: the disk is not struck
        # again before i (a dict of disks keeps only the latest event) and
        # its repair is not done by then (`done <= t` expires it).
        by_disk = np.argsort(disks, kind="stable")
        again = disks[by_disk[1:]] == disks[by_disk[:-1]]
        next_hit = np.full(n, n)
        next_hit[by_disk[:-1][again]] = by_disk[1:][again]
        last = np.minimum(next_hit, np.searchsorted(times, done) - 1)
        j, step = _ragged(last - np.arange(n))
        i = j + step + 1
        own = np.bincount(i[disks[j] == disks[i]], minlength=n)  # struck while dead
        dead_others = np.bincount(i, minlength=n) - own
        outside = racks[j] != racks[i]
        j, i = j[outside], i[outside]
        dead_outside = np.bincount(i, minlength=n)
        rack_keys, per_rack = np.unique(i * fleet.num_racks + racks[j], return_counts=True)
        same_rack = np.bincount(rack_keys // fleet.num_racks, per_rack * per_rack, n)
        pairs = (dead_outside * dead_outside - same_rack) / 2.0
        lstor_dead = np.bincount(i[bursts[j]], minlength=n) > 0  # their Lstors died too
        # `remaining` is a float sum, so it is added in the dict's order:
        # a disk sits where its dead streak began, and a disk struck again
        # while dead keeps that place.  One rank per pass keeps each
        # event's sum the same left fold.
        streak_pos = np.where(own[by_disk], 0, np.arange(n))
        streak = np.empty_like(by_disk)
        streak[by_disk] = by_disk[np.maximum.accumulate(streak_pos)]
        order = np.lexsort((streak[j], i))
        j, i = j[order], i[order]
        rank = np.arange(i.size) - np.searchsorted(i, i)
        left = done[j] - times[i]
        remaining = np.zeros(n)  # summed repair hours left outside the rack
        for r in range(int(dead_outside.max(initial=0))):
            at = rank == r
            remaining[i[at]] += left[at]

        # --- blocks-at-risk timeline: each dead interval [t, done) ---
        buckets = self.timeline_buckets
        bucket_hours = horizon / buckets
        lo = times / bucket_hours
        hi = np.minimum(done, horizon) / bucket_hours
        first = lo.astype(np.int64)
        spans = np.minimum(np.ceil(hi).astype(np.int64), buckets) - first
        dead_at, step = _ragged(spans)
        bucket = first[dead_at] + step
        overlap = np.minimum(hi[dead_at], bucket + 1.0) - np.maximum(lo[dead_at], bucket)
        kept = overlap > 0
        dead_disk_timeline = np.zeros(buckets)
        np.add.at(dead_disk_timeline, bucket[kept], overlap[kept])  # in event order
        total_dead_hours = math.fsum(np.minimum(done, horizon) - times)

        # --- availability over merged outage segments ---
        # Event e is dead at a segment's midpoint iff times[e] <= mid <
        # ends[e] (a disk struck again while dead ends its earlier event at
        # the next, as in the judgment's dead set).  Events before the first
        # whose running maximum of ends passes mid are over: skip them.
        ends = np.minimum(done, np.append(times, math.inf)[next_hit])
        mids = np.array([(start + end) / 2.0 for start, end, _dark in segments])
        lo = np.searchsorted(np.maximum.accumulate(ends), mids, "right")
        seg, step = _ragged(np.searchsorted(times, mids, "right") - lo)
        at = lo[seg] + step
        darks = [dark for _start, _end, dark in segments]
        lit = np.ones((len(darks), fleet.num_racks), dtype=bool)
        lit[np.repeat(np.arange(len(darks)), [len(dark) for dark in darks]),
            [rack for dark in darks for rack in dark]] = False
        counted = (ends[at] > mids[seg]) & lit[seg, racks[at]]
        lit_counts = np.bincount(seg[counted], minlength=len(segments)).tolist()
        dark_hours: List[Tuple[List[float], float]] = []  # (per scheme, hours)
        for (start, end, dark), lit_dead in zip(segments, lit_counts):
            expected = unreadable.get((len(dark), lit_dead))
            if expected is None:
                lit_disks = (fleet.num_racks - len(dark)) * fleet.disks_per_rack
                q_dead = lit_dead / lit_disks if lit_disks else 0.0
                expected = unreadable[len(dark), lit_dead] = [
                    fleet.groups * self._segment_unreadable(scheme, len(dark), q_dead)
                    for scheme, _groups, _gb, _judge in compiled
                ]
            dark_hours.append((expected, end - start))

        # --- one judge call per scheme; the per-event `+=` as a fold ---
        event = (dead_others, dead_outside, pairs, remaining, bursts, lstor_dead)
        rows: List[Tuple[float, float, float, float, np.ndarray]] = []
        p_losses: List[np.ndarray] = []
        for k, (_scheme, groups, gb, judge) in enumerate(compiled):
            p_loss, hours = judge(*event)
            unavailable = _fold(np.broadcast_to(groups * hours, times.shape))
            for expected, length in dark_hours:  # after the events, in order
                unavailable += expected[k] * length
            rows.append((
                _fold(groups * p_loss), unavailable, groups * total_dead_hours,
                _fold(np.full(n, gb)), dead_disk_timeline * groups,
            ))
            p_losses.append(p_loss)
        if trace.enabled:
            dead = (dead_others + 1).tolist()
            risks = [
                (scheme.name, groups, p_loss.tolist())
                for (scheme, groups, _gb, _judge), p_loss in zip(compiled, p_losses)
            ]
            for e, t in enumerate(times.tolist()):
                for name, groups, risk in risks:
                    if risk[e] > 0.0:
                        trace.instant(
                            "durability", "loss_risk", t, scheme=name,
                            expected_groups=groups * risk[e], dead=dead[e],
                        )
                trace.count("fleet", "dead_disks", t, float(dead[e]))
            for start, end, dark in segments:
                trace.complete("fleet", "rack_outage_segment", start, end, racks=len(dark))
            trace.complete("durability", "trial", 0.0, horizon, trial=trial, failures=n)
        return rows

    # -- public API -------------------------------------------------------
    def run(
        self, trials: int, years: float = 10.0, first_trial: int = 0
    ) -> Dict[str, SchemeReport]:
        """Simulate ``trials`` independent fleet histories.

        ``first_trial`` offsets the per-trial seed spawn keys so chunked
        runs (e.g. ``run(5)`` then ``run(5, first_trial=5)``) sample the
        same streams as ``run(10)`` and can be merged via
        :meth:`SchemeReport.merge`.
        """
        if trials < 1:
            raise DurabilityModelError("need at least one trial")
        if years <= 0:
            raise DurabilityModelError("years must be positive")
        # Compiled per call, not per engine: the engine keeps no derived
        # state, so a model swapped between runs is the model judged.
        compiled: List[Tuple[Scheme, float, float, Judge]] = []
        for scheme in self.schemes:
            groups_per_disk = self.fleet.groups_per_disk(scheme.width)
            p_block_lse = self.latent.block_read_error_probability(
                1.0 / max(groups_per_disk, 1.0)
            )
            # Bytes moved per disk rebuilt: the repair read plus the write.
            repair_gb = self.fleet.disk_capacity_gb * (scheme.repair_volume(1) + 1.0)
            judge = _compile_judge(self.fleet, scheme, p_block_lse)
            compiled.append((scheme, groups_per_disk, repair_gb, judge))
        unreadable: Dict[Tuple[int, int], List[float]] = {}
        tallies: List[List[Tuple[float, ...]]] = [[] for _ in compiled]
        timelines = [np.zeros(self.timeline_buckets) for _ in compiled]
        peaks = [0.0] * len(compiled)
        for trial in range(first_trial, first_trial + trials):
            rows = self._simulate_trial(trial, years, compiled, unreadable)
            for k, (*tally, timeline) in enumerate(rows):
                tallies[k].append(tuple(tally))
                timelines[k] += timeline
                peaks[k] = max(peaks[k], float(timeline.max()))
        reports: Dict[str, SchemeReport] = {}
        for k, scheme in enumerate(self.schemes):
            lost, unavailable, at_risk, gb = zip(*tallies[k])
            reports[scheme.name] = SchemeReport(
                name=scheme.name,
                trials=trials,
                group_years=self.fleet.groups * years * trials,
                expected_groups_lost=math.fsum(lost),
                repair_gb=math.fsum(gb),
                sim_days=years * 365.0 * trials,
                unavailable_group_hours=math.fsum(unavailable),
                at_risk_group_hours=math.fsum(at_risk),
                at_risk_timeline=timelines[k],
                peak_groups_at_risk=peaks[k],
            )
        return reports
