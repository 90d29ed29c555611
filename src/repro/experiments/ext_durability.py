"""Extension: quantifying §2's durability-vs-availability claim.

The paper argues RAIDP matches triplication's *durability* (a rack
failure destroys nothing) while conceding *availability* (a datum spans
only two failure domains).  This experiment reports two rungs of that
argument, both over :func:`~repro.analysis.scheme.default_schemes`:

1. The analytic MTTDL ladder (closed-form Markov approximations).
2. The long-horizon fleet engine (:mod:`repro.analysis.montecarlo`):
   nines of durability and of availability and repair-bandwidth-per-day
   over shared Weibull/LSE/burst event streams, at fleet scale and
   realistic rates.

Monte-Carlo trials fan out as chunked tasks: the engine's per-trial
seed spawn keys make a chunked run merge bit-compatibly with a
monolithic one, so ``--jobs N`` changes wall-clock, not results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union, cast

from repro.analysis.montecarlo import DurabilityEngine, Fleet, SchemeReport
from repro.analysis.scheme import default_schemes
from repro.experiments.parallel import fan_out
from repro.experiments.runner import ExperimentResult
from repro.units import HOURS_PER_YEAR

#: The analytic rung's operating point: disk MTTF and rebuild window.
DISK_MTTF_HOURS = 1_000_000.0
REBUILD_HOURS = 12.0

#: Fleet-engine seed; trials then spawn per-trial child streams.
ENGINE_SEED = 0xD15C

#: Monte-Carlo chunks the trial budget is split across.
MC_CHUNKS = 4

#: Simulated horizon (years) for the fleet engine.
ENGINE_YEARS = 10.0

TaskKey = Tuple

#: By scheme name: the analytic rung's MTTDL years, or one MC chunk's
#: reports.  The key's kind says which.
TaskValue = Union[Dict[str, float], Dict[str, SchemeReport]]


def _engine_config(full_scale: bool) -> Tuple[Fleet, int]:
    """(fleet, total trials): 10k disks at full scale, 1k at smoke."""
    if full_scale:
        return Fleet(num_racks=40, disks_per_rack=250, groups=1_000_000), 200
    return Fleet(num_racks=20, disks_per_rack=50, groups=100_000), 48


def _build_engine(full_scale: bool) -> Tuple[DurabilityEngine, int]:
    fleet, trials = _engine_config(full_scale)
    return DurabilityEngine(fleet=fleet, seed=ENGINE_SEED), trials


def tasks(
    full_scale: bool = False, seeds: Optional[Sequence[int]] = None
) -> List[TaskKey]:
    del seeds  # placement variance is swept by trials, not seeds
    keys: List[TaskKey] = [("analytic",)]
    keys.extend(("mc", chunk) for chunk in range(MC_CHUNKS))
    return keys


def run_task(key: TaskKey, full_scale: bool = False) -> TaskValue:
    if key[0] == "analytic":
        return {
            scheme.name: scheme.mttdl_hours(DISK_MTTF_HOURS, REBUILD_HOURS)
            / HOURS_PER_YEAR
            for scheme in default_schemes()
        }
    _tag, chunk = key
    engine, total_trials = _build_engine(full_scale)
    per_chunk = total_trials // MC_CHUNKS
    first = chunk * per_chunk
    if chunk == MC_CHUNKS - 1:
        per_chunk = total_trials - first  # remainder rides the last chunk
    return engine.run(per_chunk, years=ENGINE_YEARS, first_trial=first)


def merge(
    keyed: Dict[TaskKey, TaskValue],
    full_scale: bool = False,
    seeds: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    del seeds
    result = ExperimentResult(
        experiment="ext-durability",
        title="durability vs availability (paper §2, quantified)",
        unit="MTTDL years / nines / GB per day / groups",
    )
    analytic = cast(Dict[str, float], keyed[("analytic",)])
    for name, years in analytic.items():
        result.add(f"analytic MTTDL [{name}] (years)", years)
    merged: Dict[str, SchemeReport] = {}
    for chunk in range(MC_CHUNKS):
        reports = cast(Dict[str, SchemeReport], keyed[("mc", chunk)])
        for name, report in reports.items():
            merged[name] = merged[name].merge(report) if name in merged else report
    fleet, trials = _engine_config(full_scale)
    for name, report in merged.items():
        result.add(f"MC nines [{name}]", report.durability_nines)
        result.add(f"MC availability nines [{name}]", report.availability_nines)
        result.add(f"MC repair GB/day [{name}]", report.repair_gb_per_day)
        result.add(
            f"MC peak groups at-risk [{name}]", report.peak_groups_at_risk
        )
    result.notes = (
        "expected shape: the independent-failure ladder puts RAIDP's MTTDL "
        "in triplication's class; the fleet engine orders durability rep2 "
        "< raidp < rep3 and leaves RAIDP's availability at the two-replica "
        "level, nines below triplication's -- the paper's stated trade.  "
        f"The fleet-engine rows simulate {fleet.num_disks} disks x "
        f"{ENGINE_YEARS:.0f} years x {trials} trials with Weibull lifetimes, "
        "latent sector errors, and correlated rack bursts; bursts kill "
        "co-located Lstors with their disks, which is where RAIDP pays for "
        "the §2 caveat in durability as well as availability."
    )
    return result


def run(
    full_scale: bool = False,
    seeds: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    keyed = fan_out(__name__, full_scale=full_scale, seeds=seeds, jobs=jobs)
    return merge(keyed, full_scale=full_scale, seeds=seeds)
