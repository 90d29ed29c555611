"""Tests for the long-horizon Monte-Carlo durability engine (paper §2).

The load-bearing check is the MC-vs-analytic property test: in the
independent-exponential, no-LSE, no-correlated-failure regime the engine
must converge to the closed-form per-group loss rate that
``analytic_mc_mttdl`` derives under the same window semantics, for all
four scheme families.  That closed form is itself tied back to the
classic ``mttdl_*`` ladder by exact factors asserted below, so the chain
engine -> analytic_mc_mttdl -> ladder is pinned end to end.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import montecarlo
from repro.analysis.montecarlo import DurabilityEngine, Fleet
from repro.analysis.scheme import (
    DurabilityModelError,
    Scheme,
    default_schemes,
    mttdl_erasure,
    mttdl_replication,
)
from repro.faults import (
    CorrelatedFailureModel,
    DiskLifetimeModel,
    LatentErrorModel,
    RepairModel,
)
from repro.obs import tracer
from repro.units import HOURS_PER_YEAR
from tests.oracles import (
    _closure_schedule,
    analytic_mc_mttdl,
    event_loop_trial,
    loop_sample_failures,
    loop_sample_outages,
    reference_judge,
)

# ----------------------------------------------------------------------
# Validation regime: exponential lifetimes with MTTF exactly 1e4 hours,
# no latent errors, no correlated failures, and a repair window long
# enough (500 h) that double failures are common within a 10-year run.
# ----------------------------------------------------------------------
MTTF_HOURS = 1e4
WINDOW_HOURS = 500.0

VALIDATION_LIFETIME = DiskLifetimeModel(
    afr=1.0 - math.exp(-HOURS_PER_YEAR / MTTF_HOURS), weibull_shape=1.0
)
NO_LSE = LatentErrorModel(rate_per_disk_year=0.0)
NO_CORRELATION = CorrelatedFailureModel(
    rack_outage_rate_per_year=0.0, burst_rate_per_rack_year=0.0
)
VALIDATION_REPAIR = RepairModel(
    detection_hours=0.0, disk_rebuild_hours=WINDOW_HOURS, concurrent_rebuilds=64
)
VALIDATION_FLEET = Fleet(num_racks=8, disks_per_rack=8, groups=10_000)
VALIDATION_SCHEMES = (
    Scheme.replication(2),
    Scheme.replication(3),
    Scheme.raidp(lstors=1, superchunks_per_disk=8),
    Scheme.erasure(4, 2),
)


def _validation_engine(seed: int) -> DurabilityEngine:
    return DurabilityEngine(
        fleet=VALIDATION_FLEET,
        schemes=VALIDATION_SCHEMES,
        lifetime=VALIDATION_LIFETIME,
        latent=NO_LSE,
        correlated=NO_CORRELATION,
        repair=VALIDATION_REPAIR,
        seed=seed,
    )


@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_engine_converges_to_analytic_mttdl(seed):
    """Satellite #4: seeded MC loss rates agree with analytic_mc_mttdl
    for every scheme family in the independent-exponential regime."""
    reports = _validation_engine(seed).run(trials=80, years=10.0)
    for scheme in VALIDATION_SCHEMES:
        analytic_years = analytic_mc_mttdl(
            scheme, VALIDATION_FLEET, VALIDATION_LIFETIME, VALIDATION_REPAIR
        )
        mc_years = 1.0 / reports[scheme.name].loss_rate_per_group_year
        ratio = analytic_years / mc_years
        assert 0.80 <= ratio <= 1.25, (
            f"{scheme.name}: MC {mc_years:.1f}y vs analytic "
            f"{analytic_years:.1f}y (ratio {ratio:.3f})"
        )


def test_analytic_mc_matches_ladder_factors():
    """analytic_mc_mttdl differs from the classic serialized-rebuild
    ladder by exact, documented renewal/overlap factors."""
    renewal = (MTTF_HOURS + WINDOW_HOURS) / MTTF_HOURS
    rep2 = analytic_mc_mttdl(
        Scheme.replication(2), VALIDATION_FLEET, VALIDATION_LIFETIME, VALIDATION_REPAIR
    )
    assert rep2 == pytest.approx(
        mttdl_replication(2, MTTF_HOURS, WINDOW_HOURS) / HOURS_PER_YEAR * renewal**2
    )
    rep3 = analytic_mc_mttdl(
        Scheme.replication(3), VALIDATION_FLEET, VALIDATION_LIFETIME, VALIDATION_REPAIR
    )
    assert rep3 == pytest.approx(
        2.0 * mttdl_replication(3, MTTF_HOURS, WINDOW_HOURS) / HOURS_PER_YEAR * renewal**3
    )
    n, k = 4, 2
    ec = analytic_mc_mttdl(
        Scheme.erasure(n, k), VALIDATION_FLEET, VALIDATION_LIFETIME, VALIDATION_REPAIR
    )
    assert ec == pytest.approx(
        mttdl_erasure(n, k, MTTF_HOURS, WINDOW_HOURS)
        / HOURS_PER_YEAR
        * 2.0
        / (n + k)
        * renewal**3
    )


def test_second_lstor_extends_raidp_mttdl():
    one = analytic_mc_mttdl(
        Scheme.raidp(lstors=1, superchunks_per_disk=8),
        VALIDATION_FLEET,
        VALIDATION_LIFETIME,
        VALIDATION_REPAIR,
    )
    two = analytic_mc_mttdl(
        Scheme.raidp(lstors=2, superchunks_per_disk=8),
        VALIDATION_FLEET,
        VALIDATION_LIFETIME,
        VALIDATION_REPAIR,
    )
    assert two > one * 5


# ----------------------------------------------------------------------
# Determinism and chunked merging.
# ----------------------------------------------------------------------
def test_run_is_bitwise_deterministic():
    first = _validation_engine(9).run(trials=20, years=4.0)
    second = _validation_engine(9).run(trials=20, years=4.0)
    for name, report in first.items():
        other = second[name]
        assert report.expected_groups_lost == other.expected_groups_lost
        assert report.repair_gb == other.repair_gb
        assert report.unavailable_group_hours == other.unavailable_group_hours
        assert np.array_equal(report.at_risk_timeline, other.at_risk_timeline)


def test_chunked_runs_merge_to_monolithic():
    """first_trial offsets give per-trial seed streams, so a split run
    merged back together must equal the monolithic run bit for bit."""
    engine = _validation_engine(11)
    whole = engine.run(trials=24, years=4.0)
    head = engine.run(trials=9, years=4.0)
    tail = engine.run(trials=15, years=4.0, first_trial=9)
    for name, report in whole.items():
        merged = head[name].merge(tail[name])
        assert merged.trials == report.trials
        assert merged.expected_groups_lost == pytest.approx(
            report.expected_groups_lost, rel=1e-12
        )
        assert merged.repair_gb == pytest.approx(report.repair_gb, rel=1e-12)
        assert np.allclose(merged.at_risk_timeline, report.at_risk_timeline)


# ----------------------------------------------------------------------
# Full default-scheme behaviour (bursts + Lstor co-location caveat on).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def default_reports():
    engine = DurabilityEngine(fleet=Fleet(num_racks=20, disks_per_rack=50, groups=100_000))
    return engine.run(trials=40, years=10.0)


def test_default_run_orders_schemes(default_reports):
    nines = {name: r.durability_nines for name, r in default_reports.items()}
    assert nines["rep2"] < nines["raidp"]
    assert nines["raidp"] < nines["raidp(2 lstors)"]
    # With correlated bursts destroying co-located Lstors, RAIDP does
    # *not* reach triplication -- the fixed §2 caveat's signature.
    assert nines["raidp"] < nines["rep3"]


def test_default_run_reports_are_complete(default_reports):
    assert set(default_reports) == {s.name for s in default_schemes()}
    for report in default_reports.values():
        assert report.trials == 40
        assert report.repair_gb_per_day > 0
        assert report.sim_days > 0
        assert report.at_risk_timeline.shape == (120,)
        assert report.peak_groups_at_risk >= 0


def test_erasure_pays_read_amplified_repair(default_reports):
    assert (
        default_reports["ec(6+2)"].repair_gb_per_day
        > default_reports["rep3"].repair_gb_per_day * 3
    )


def test_raidp_concedes_availability(default_reports):
    assert (
        default_reports["raidp"].unavailability
        > default_reports["rep3"].unavailability
    )


def _pin(reports):
    """Every float tally of every scheme, as ``float.hex``."""
    return {
        name: (
            r.expected_groups_lost.hex(),
            r.repair_gb.hex(),
            r.unavailable_group_hours.hex(),
            r.at_risk_group_hours.hex(),
            r.peak_groups_at_risk.hex(),
            float(r.at_risk_timeline.sum()).hex(),
        )
        for name, r in reports.items()
    }


def test_default_run_is_pinned():
    """The smoke fleet's first eight trials, float for float, as they
    were before ``Scheme`` moved to ``analysis/scheme.py`` -- so the bench
    digest is not the only guard on the judge's arithmetic.  The last
    three columns (at-risk hours, peak, timeline sum) are the values of
    the commit before the judge was compiled per scheme: the tally
    accumulators and the timeline are what that change rewrote."""
    engine = DurabilityEngine(Fleet(20, 50, groups=100_000), seed=0xD15C)
    assert _pin(engine.run(8, years=10.0)) == {
        "rep2": (
            "0x1.54eb954f2460cp+4", "0x1.9cd7800000000p+23", "0x1.69490aa31afb3p+9",
            "0x1.fa3c5e81e4e36p+21", "0x1.1f7e6cacd9140p+5", "0x1.630efcd959b36p+12",
        ),
        "rep3": (
            "0x1.5c872a92ebdd4p-11", "0x1.9cd7800000000p+23", "0x1.230e330538080p+0",
            "0x1.7bad46e16baa8p+22", "0x1.af3da303459e0p+5", "0x1.0a4b3da303469p+13",
        ),
        "raidp": (
            "0x1.5c35e15223980p+0", "0x1.9cd7800000000p+23", "0x1.8ad23a6367cdbp+9",
            "0x1.fa3c5e81e4e36p+21", "0x1.1f7e6cacd9140p+5", "0x1.630efcd959b36p+12",
        ),
        "raidp(2 lstors)": (
            "0x1.e97e888bd9c38p-2", "0x1.9cd7800000000p+23", "0x1.8e84053452970p+9",
            "0x1.fa3c5e81e4e36p+21", "0x1.1f7e6cacd9140p+5", "0x1.630efcd959b36p+12",
        ),
        "ec(6+2)": (
            "0x1.ca694ec6caa4fp-7", "0x1.693c900000000p+25", "0x1.faad34e6b3322p+5",
            "0x1.fa3c5e81e4e36p+23", "0x1.1f7e6cacd9140p+7", "0x1.630efcd959b36p+14",
        ),
    }


def test_lazy_weibull_run_is_pinned():
    """The same fleet under lazy recovery (batches of three, six-hour
    deadline) and infant-mortality lifetimes: the straggler and batch
    arms of the repair scheduler, which the default models never reach.
    Values of the commit before the judge was compiled per scheme."""
    engine = DurabilityEngine(
        Fleet(20, 50, groups=100_000),
        lifetime=DiskLifetimeModel(weibull_shape=0.8),
        repair=RepairModel(lazy_threshold=3, lazy_max_wait_hours=6.0),
        seed=0xD15C,
    )
    assert _pin(engine.run(8, years=10.0)) == {
        "rep2": (
            "0x1.db8e918140801p+3", "0x1.1a3a000000000p+23", "0x1.4d32e22e1d0f4p+10",
            "0x1.f813bfffffffep+21", "0x1.19188c4622e20p+5", "0x1.618b65b2d9696p+12",
        ),
        "rep3": (
            "0x1.eeba0abe6ef57p-12", "0x1.1a3a000000000p+23", "0x1.566b0ed8f6a00p-1",
            "0x1.7a0ecffffffffp+22", "0x1.a5a4d26934530p+5", "0x1.09288c46230f1p+13",
        ),
        "raidp": (
            "0x1.ca68efdded72fp-2", "0x1.1a3a000000000p+23", "0x1.5f9f22ac46b8dp+10",
            "0x1.f813bfffffffep+21", "0x1.19188c4622e20p+5", "0x1.618b65b2d9696p+12",
        ),
        "raidp(2 lstors)": (
            "0x1.cc8d97ed369bep-5", "0x1.1a3a000000000p+23", "0x1.6063668f660e8p+10",
            "0x1.f813bfffffffep+21", "0x1.19188c4622e20p+5", "0x1.618b65b2d9696p+12",
        ),
        "ec(6+2)": (
            "0x1.450e29e565cd6p-7", "0x1.ede5800000000p+24", "0x1.2a0b8887b4b41p+5",
            "0x1.f813bfffffffep+23", "0x1.19188c4622e20p+7", "0x1.618b65b2d9696p+14",
        ),
    }


# ----------------------------------------------------------------------
# The compiled judge: same floats, counted work, observed not disturbed.
# ----------------------------------------------------------------------
JUDGED_SCHEMES = st.one_of(
    st.integers(min_value=2, max_value=6).map(Scheme.replication),
    st.sampled_from((2, 4, 6, 10, 30, 70)).map(lambda n: Scheme.erasure(n, 2)),
    st.builds(
        Scheme.raidp,
        lstors=st.integers(min_value=1, max_value=3),
        superchunks_per_disk=st.sampled_from((2, 8, 128)),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    fleet=st.builds(
        Fleet,
        num_racks=st.integers(min_value=2, max_value=60),
        disks_per_rack=st.integers(min_value=1, max_value=300),
    ),
    scheme=JUDGED_SCHEMES,
    dead=st.integers(min_value=0, max_value=80).flatmap(
        lambda others: st.tuples(
            st.just(others), st.integers(min_value=0, max_value=others)
        )
    ),
    pair_share=st.floats(min_value=0.0, max_value=1.0),
    remaining_outside=st.floats(min_value=0.0, max_value=5000.0),
    p_block_lse=st.floats(min_value=0.0, max_value=0.5),
)
def test_compiled_judge_matches_reference(
    fleet, scheme, dead, pair_share, remaining_outside, p_block_lse
):
    """``_compile_judge`` returns, float for float, what the per-event
    ladder it replaced (``tests/oracles.py::reference_judge``) returns --
    every arm, including the width >= 4 replication arm no default
    scheme reaches and the stripe-wider-than-the-fleet rejection."""
    dead_others, dead_outside = dead
    pairs = pair_share * dead_outside * dead_outside / 2.0
    try:
        judge = montecarlo._compile_judge(fleet, scheme, p_block_lse)
    except DurabilityModelError:
        assert scheme.kind == "erasure" and scheme.width > fleet.num_racks
        with pytest.raises(DurabilityModelError, match="wider than the fleet"):
            reference_judge(
                fleet, scheme, dead_others, dead_outside, pairs,
                remaining_outside, False, False, p_block_lse,
            )
        return
    # The four events go in as arrays, the way a trial calls the judge,
    # and twice: RAIDP's per-dead-count table is read on a miss, then on
    # a hit.
    events = [
        (dead_others, dead_outside, pairs, remaining_outside, burst, any_dead_lstor)
        for burst in (False, True)
        for any_dead_lstor in (False, True)
    ]
    columns = [np.array(column) for column in zip(*events)]
    for _call in range(2):
        p_loss, hours = judge(*columns)
        hours = np.broadcast_to(hours, p_loss.shape)
        for k, event in enumerate(events):
            assert (float(p_loss[k]), float(hours[k])) == reference_judge(
                fleet, scheme, *event, p_block_lse
            )


def test_run_work_is_counted(monkeypatch):
    """Exact work counters of the pinned run: they repeat on any host.

    The commit that walked the ladder per event made 10,552
    ``_binom_tail`` calls here (6,542 of them chain decodes); a compiled
    run decodes a chain once per distinct dead count per RAIDP scheme and
    scores an outage segment once per distinct (dark racks, lit dead).
    A judge scores a whole trial's events in one call: 40 calls, where
    the per-event loop made 755 (one per scheme for each event that
    found another disk dead, plus two idle verdicts per scheme and trial)."""
    calls = Counter()
    dead_counts = set()

    def counted(name):
        real = getattr(montecarlo, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(montecarlo, name, wrapper)

    counted("_binom_tail")
    counted("_chain_blocked")
    counted("heappop")  # one per release the repair-slot walk visits
    compile_judge = montecarlo._compile_judge

    def watched_compile(fleet, scheme, p_block_lse):
        calls["_compile_judge"] += 1
        judge = compile_judge(fleet, scheme, p_block_lse)

        def watched(dead_others, *rest):
            calls["judge"] += 1
            dead_counts.update(np.unique(dead_others).tolist())
            return judge(dead_others, *rest)

        return watched

    monkeypatch.setattr(montecarlo, "_compile_judge", watched_compile)
    engine = DurabilityEngine(Fleet(20, 50, groups=100_000), seed=0xD15C)
    reports = engine.run(8, 10.0)
    raidp_schemes = sum(scheme.kind == "raidp" for scheme in engine.schemes)
    assert calls["_compile_judge"] == len(engine.schemes)  # the ladder: once each
    assert calls["judge"] == len(engine.schemes) * 8  # once per scheme and trial
    assert calls["_chain_blocked"] <= len(dead_counts) * raidp_schemes
    assert calls["_binom_tail"] <= 4_100
    assert (
        calls["_compile_judge"], calls["_chain_blocked"], calls["_binom_tail"],
        calls["judge"], len(dead_counts),
    ) == (5, 18, 38, 40, 9)
    # The counting wrappers observed the pinned run, not another one.
    assert reports["raidp"].expected_groups_lost.hex() == "0x1.5c35e15223980p+0"

    # The repair slots: the walk visits only the releases that find their
    # slot busy -- two of the run's 1,691, where the heap of slots took a
    # turn per release.  Queued behind one slot it visits almost every
    # release, and still each at most once: linear, where iterating the
    # recurrence to a fixed point over the whole array takes ~n passes.
    assert calls["heappop"] == 2
    saturated = DurabilityEngine(**SATURATED)
    saturated.run(2, years=10.0)
    events = sum(
        saturated._sample_failures(saturated._trial_rng(trial), 10.0 * HOURS_PER_YEAR)[0].size
        for trial in range(2)
    )
    walked = calls["heappop"] - 2
    assert walked <= events
    assert (walked, events) == (1_059, 1_062)


def test_tracing_the_engine_is_an_observer():
    """Four smoke trials, traced and untraced: the same reports field
    for field, and exactly the events the per-event judge emitted."""
    fleet = Fleet(20, 50, groups=100_000)
    bare = DurabilityEngine(fleet, seed=0xD15C).run(4, 10.0)
    with tracer.capture() as trace:
        traced = DurabilityEngine(fleet, seed=0xD15C).run(4, 10.0)
    for name, report in bare.items():
        theirs = vars(traced[name]).copy()
        ours = vars(report).copy()
        assert np.array_equal(ours.pop("at_risk_timeline"), theirs.pop("at_risk_timeline"))
        assert ours == theirs

    kinds = Counter((event.category, event.name) for event in trace.events)
    trials = [e for e in trace.events if (e.category, e.name) == ("durability", "trial")]
    assert [e.attrs["trial"] for e in trials] == [0, 1, 2, 3]
    # One dead-disk count per failure event, one span per merged segment,
    # one loss_risk per (event, scheme) with p_loss > 0 -- and no other.
    assert kinds == {
        ("fleet", "dead_disks"): sum(e.attrs["failures"] for e in trials),
        ("fleet", "rack_outage_segment"): 207,
        ("durability", "loss_risk"): 913,
        ("durability", "trial"): 4,
    }
    assert len(trace.events) == 1_921
    risks = [e for e in trace.events if e.name == "loss_risk"]
    for name, report in bare.items():
        assert math.fsum(
            e.attrs["expected_groups"] for e in risks if e.attrs["scheme"] == name
        ) == pytest.approx(report.expected_groups_lost, rel=1e-12)
    # Order, timestamps and every attribute (``expected_groups`` and
    # ``dead`` among them), bit for bit as before the judge was compiled.
    digest = hashlib.sha256()
    for e in trace.events:
        attrs = sorted(
            (key, value.hex() if isinstance(value, float) else value)
            for key, value in e.attrs.items()
        )
        digest.update(
            repr((e.seq, e.phase, e.category, e.name, e.ts.hex(), e.dur.hex(), attrs)).encode()
        )
    assert digest.hexdigest()[:16] == "905fd5a79f496f4c"


# ----------------------------------------------------------------------
# Array judgment against the per-event loop it replaced.
# ----------------------------------------------------------------------
#: Every judge arm: width-2, width-3 and wide replication, RAIDP with one
#: and two Lstors, and erasure -- all narrow enough for a four-rack fleet.
DIFFERENTIAL_SCHEMES = (
    Scheme.replication(2),
    Scheme.replication(3),
    Scheme.replication(4),
    Scheme.raidp(),
    Scheme.raidp(lstors=2, superchunks_per_disk=8),
    Scheme.erasure(2, 2),
)


#: Whole-rack bursts and infant mortality queued behind one 400 h rebuild
#: slot: most releases wait, and disks are struck again while dead.
SATURATED = dict(
    fleet=Fleet(8, 6, groups=10_000), schemes=DIFFERENTIAL_SCHEMES,
    lifetime=DiskLifetimeModel(afr=0.1, weibull_shape=0.5),
    correlated=CorrelatedFailureModel(
        burst_rate_per_rack_year=1.0, burst_kill_probability=1.0
    ),
    repair=RepairModel(concurrent_rebuilds=1, disk_rebuild_hours=400.0),
    seed=1,
)


class DifferentialEngine(DurabilityEngine):
    """Runs each trial through ``tests/oracles.py::event_loop_trial`` as
    well, on the same compiled judges, and asserts the two agree bit for
    bit: every tally by ``float.hex``, the timeline by array equality."""

    def _simulate_trial(self, trial, years, compiled, unreadable):
        rows = super()._simulate_trial(trial, years, compiled, unreadable)
        oracle = event_loop_trial(self, trial, years, compiled, {})
        assert len(rows) == len(oracle) == len(compiled)
        for (*tally, timeline), (*expected, expected_timeline) in zip(rows, oracle):
            assert [x.hex() for x in tally] == [x.hex() for x in expected], trial
            assert np.array_equal(timeline, expected_timeline), trial
        return rows


def _struck_while_dead(engine, trial, years):
    """Failure events of ``trial`` that strike a disk whose repair from
    an earlier event has not finished."""
    times, disks, _bursts = engine._sample_failures(
        engine._trial_rng(trial), years * HOURS_PER_YEAR
    )
    done = engine._schedule_repairs(times)
    dead_until = {}
    hits = 0
    for t, disk, finish in zip(times.tolist(), disks.tolist(), done.tolist()):
        hits += dead_until.get(disk, -math.inf) > t
        dead_until[disk] = finish
    return hits


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    fleet=st.builds(
        Fleet,
        num_racks=st.integers(min_value=4, max_value=8),
        disks_per_rack=st.integers(min_value=1, max_value=25),
        groups=st.integers(min_value=1, max_value=10**6),
    ),
    lifetime=st.builds(
        DiskLifetimeModel,
        afr=st.floats(min_value=0.01, max_value=0.6),
        weibull_shape=st.floats(min_value=0.5, max_value=2.5),
    ),
    correlated=st.builds(
        CorrelatedFailureModel,
        rack_outage_rate_per_year=st.floats(min_value=0.0, max_value=6.0),
        rack_outage_hours=st.floats(min_value=0.5, max_value=300.0),
        burst_rate_per_rack_year=st.floats(min_value=0.0, max_value=1.0),
        burst_kill_probability=st.floats(min_value=0.0, max_value=1.0),
    ),
    repair=st.builds(
        RepairModel,
        detection_hours=st.floats(min_value=0.0, max_value=48.0),
        disk_rebuild_hours=st.floats(min_value=1.0, max_value=1000.0),
        concurrent_rebuilds=st.integers(min_value=1, max_value=8),
        lazy_threshold=st.integers(min_value=1, max_value=4),
        lazy_max_wait_hours=st.floats(min_value=0.0, max_value=200.0),
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_array_judgment_matches_event_loop(fleet, lifetime, correlated, repair, seed):
    """Each trial's tallies and timeline equal, bit for bit, those of the
    per-event loop the array judgment replaced -- across fleet shapes,
    lifetimes, bursts and outages, detection and rebuild times, rebuild
    slots and lazy batching."""
    DifferentialEngine(
        fleet, DIFFERENTIAL_SCHEMES, lifetime, correlated=correlated,
        repair=repair, seed=seed,
    ).run(2, years=5.0)


def test_array_judgment_matches_event_loop_when_disks_are_struck_while_dead():
    """Whole-rack bursts and infant mortality queued behind one rebuild
    slot strike disks whose repair is still pending: the dead set's
    per-disk replacement, and ``remaining`` summed in the dict's order (a
    disk keeps the place its dead streak took), not in event order."""
    engine = DifferentialEngine(**SATURATED)
    engine.run(2, years=10.0)
    assert sum(_struck_while_dead(engine, trial, 10.0) for trial in range(2)) >= 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    instants=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=500.0), st.integers(1, 4)),
        max_size=60,
    ),
    repair=st.builds(
        RepairModel,
        detection_hours=st.floats(min_value=0.0, max_value=48.0),
        disk_rebuild_hours=st.floats(min_value=1.0, max_value=1000.0),
        concurrent_rebuilds=st.integers(min_value=1, max_value=8),
        lazy_threshold=st.integers(min_value=1, max_value=4),
        lazy_max_wait_hours=st.floats(min_value=0.0, max_value=200.0),
    ),
)
def test_repair_schedule_matches_the_heap_of_slots(instants, repair):
    """``_schedule_repairs`` -- the release pass and the slot recurrence --
    returns, float for float, what the heap-of-slots loop
    (``tests/oracles.py::_closure_schedule``) returns: over sorted failure
    times with runs of equal instants (a burst strikes several disks at
    once), no events at all, one to eight slots, short and long rebuilds,
    and eager and lazy recovery."""
    times = []
    clock = 0.0
    for gap, disks in instants:
        clock += gap
        times.extend([clock] * disks)
    engine = DurabilityEngine(Fleet(4, 2), (Scheme.replication(2),), repair=repair)
    done = engine._schedule_repairs(np.array(times, dtype=float))
    assert [x.hex() for x in done.tolist()] == [
        x.hex() for x in _closure_schedule(repair, times)
    ]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    fleet=st.builds(
        Fleet,
        num_racks=st.integers(min_value=2, max_value=12),
        disks_per_rack=st.integers(min_value=1, max_value=30),
    ),
    correlated=st.builds(
        CorrelatedFailureModel,
        rack_outage_rate_per_year=st.floats(min_value=0.0, max_value=20.0),
        rack_outage_hours=st.floats(min_value=0.5, max_value=300.0),
        burst_rate_per_rack_year=st.floats(min_value=0.0, max_value=3.0),
        burst_kill_probability=st.floats(min_value=0.0, max_value=1.0),
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_samplers_draw_what_one_call_per_burst_and_outage_drew(fleet, correlated, seed):
    """All of a trial's bursts and all of its outages are each drawn in one
    RNG call, and give the arrays the loops of one call per burst and per
    outage (``tests/oracles.py``) gave, leaving the stream where they did."""
    engine = DurabilityEngine(
        fleet, (Scheme.replication(2),), correlated=correlated, seed=seed
    )
    horizon = 5.0 * HOURS_PER_YEAR
    ours, loops = engine._trial_rng(0), engine._trial_rng(0)
    for got, expected in zip(
        engine._sample_failures(ours, horizon), loop_sample_failures(engine, loops, horizon)
    ):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    assert engine._sample_outages(ours, horizon) == loop_sample_outages(
        engine, loops, horizon
    )
    assert ours.random() == loops.random()


def test_array_judgment_of_a_trial_without_failures():
    """No failure events: empty arrays, zero tallies, and the outage
    segments still scored."""
    engine = DifferentialEngine(
        Fleet(4, 2, groups=10_000), DIFFERENTIAL_SCHEMES,
        DiskLifetimeModel(afr=1e-9),
        correlated=CorrelatedFailureModel(
            rack_outage_rate_per_year=50.0, burst_rate_per_rack_year=0.0
        ),
    )
    reports = engine.run(1, years=1.0)
    assert engine._sample_failures(engine._trial_rng(0), HOURS_PER_YEAR)[0].size == 0
    for report in reports.values():
        assert report.expected_groups_lost == report.repair_gb == 0.0
        assert report.at_risk_group_hours == 0.0
        assert not report.at_risk_timeline.any()
    assert reports["rep2"].unavailable_group_hours > 0.0


def test_outage_counts_a_disk_struck_while_dead_once(monkeypatch):
    """A disk struck again before its repair finished is one dead disk at
    an outage segment's midpoint, as it is in the judgment's dead set."""
    # Disk 0 (rack 0) fails at 100 h and again at 105 h; with the default
    # repairs its dead intervals, [100, 112.25) and [105, 117.25), both
    # hold 108 h, the midpoint of rack 3's outage [106, 110).
    monkeypatch.setattr(
        DurabilityEngine, "_sample_failures",
        lambda self, rng, horizon: (
            np.array([100.0, 105.0]), np.array([0, 0]), np.array([False, False])
        ),
    )
    monkeypatch.setattr(
        DurabilityEngine, "_sample_outages",
        lambda self, rng, horizon: [(106.0, 110.0, 3)],
    )
    q_dead = []
    segment_unreadable = DurabilityEngine._segment_unreadable

    def spy(self, scheme, dark_count, q):
        q_dead.append(q)
        return segment_unreadable(self, scheme, dark_count, q)

    monkeypatch.setattr(DurabilityEngine, "_segment_unreadable", spy)
    engine = DurabilityEngine(Fleet(4, 2, groups=1_000), schemes=(Scheme.replication(2),))
    engine.run(1, years=1.0)
    assert q_dead == [1 / 6]  # one dead disk among the six lit ones


# ----------------------------------------------------------------------
# Validation errors.
# ----------------------------------------------------------------------
def test_fleet_validation():
    with pytest.raises(DurabilityModelError):
        Fleet(num_racks=0, disks_per_rack=10)
    with pytest.raises(DurabilityModelError):
        Fleet(num_racks=4, disks_per_rack=10, disk_capacity_gb=-1.0)


def test_scheme_wider_than_fleet_rejected():
    with pytest.raises(DurabilityModelError):
        DurabilityEngine(
            fleet=Fleet(num_racks=4, disks_per_rack=10),
            schemes=(Scheme.erasure(6, 2),),
        )


def test_scheme_validation():
    # S - 1 siblings feed a chain decode; S < 1 would score the chain as
    # never blocked, i.e. RAIDP as unable to lose data.
    for bad in (0, -3):
        with pytest.raises(DurabilityModelError, match="superchunk"):
            Scheme.raidp(superchunks_per_disk=bad)
    with pytest.raises(DurabilityModelError, match="Lstor"):
        Scheme.raidp(lstors=0)
    # 0 <= tolerance < width + lstors: each Lstor buys one more
    # survivable loss than the members alone.
    for bad in (-1, 3):
        with pytest.raises(DurabilityModelError, match="tolerance"):
            Scheme("x", "replication", width=3, tolerance=bad, needed_online=1)
    assert Scheme.raidp(lstors=2).tolerance == 3
    with pytest.raises(DurabilityModelError, match="tolerance"):
        Scheme("x", "raidp", width=2, tolerance=4, needed_online=1, lstors=2)


def test_duplicate_scheme_names_rejected():
    with pytest.raises(DurabilityModelError):
        DurabilityEngine(
            fleet=Fleet(num_racks=8, disks_per_rack=10),
            schemes=(Scheme.replication(2), Scheme.replication(2)),
        )


# ----------------------------------------------------------------------
# Shared failure-model parameters (repro.faults).
# ----------------------------------------------------------------------
def test_weibull_scale_pins_first_year_failure_to_afr():
    for shape in (0.7, 1.0, 1.5):
        model = DiskLifetimeModel(afr=0.04, weibull_shape=shape)
        p_year1 = 1.0 - math.exp(-((HOURS_PER_YEAR / model.scale_hours) ** shape))
        assert p_year1 == pytest.approx(0.04)


def test_exponential_mttf_matches_scale():
    model = DiskLifetimeModel(afr=0.02, weibull_shape=1.0)
    assert model.mttf_hours == pytest.approx(model.scale_hours)


def test_latent_error_probability_bounds():
    model = LatentErrorModel(rate_per_disk_year=0.3, scrub_interval_hours=14 * 24.0)
    p_disk = model.disk_read_error_probability()
    assert 0.0 < p_disk < 1.0
    p_block = model.block_read_error_probability(1e-6)
    assert 0.0 < p_block < p_disk
    none = LatentErrorModel(rate_per_disk_year=0.0)
    assert none.disk_read_error_probability() == 0.0
    assert none.block_read_error_probability(1e-6) == 0.0
