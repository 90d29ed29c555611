"""Object lifetime: a finished run frees what it built by reference counting.

Every case switches the cyclic collector off (after one collection, so
earlier tests leave nothing behind), builds, runs and drops one kind of
run, then requires that every simulator it built or restored is already
dead and that a collection finds nothing.  A reference cycle through a
process, a failure, the cluster graph or an observer fails here instead
of showing up as the benchmark's peak RSS (DESIGN.md, "Object
lifetime").
"""

import contextlib
import gc
import sys
import traceback
import weakref

import pytest

from repro import units
from repro.core.recovery import RecoveryManager, RecoveryOptions
from repro.experiments import ext_scale, table2_recovery
from repro.experiments.common import Scale, build_hdfs, build_raidp
from repro.obs import simprofile, timeseries, tracer
from repro.sim import snapshot
from repro.sim.engine import Simulator
from repro.tools.chaos import run_chaos
from repro.workloads.dfsio import dfsio_write


@contextlib.contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every simulator built or restored in the test
    (both paths bind the ambient observers; a re-bind adds nothing)."""
    refs = []
    bind = Simulator.bind_observers

    def tracked(sim):
        if not any(ref() is sim for ref in refs):
            refs.append(weakref.ref(sim))
        bind(sim)

    monkeypatch.setattr(Simulator, "bind_observers", tracked)
    return refs


def assert_all_freed(refs):
    assert refs, "the run built no simulator"
    assert [ref for ref in refs if ref() is not None] == []
    assert gc.collect() == 0


# ----------------------------------------------------------------------
# Every run kind frees its cluster.
# ----------------------------------------------------------------------
def test_chaos_soak_frees_its_cluster(simulators):
    with collector_off():
        result = run_chaos(seed=101)
        assert result.ok, "\n".join(result.problems)
        assert_all_freed(simulators)


def test_sampled_chaos_soak_frees_its_cluster(simulators):
    """``chaos --trace``'s flight recorder: the sampler watches the
    cluster and hooks the auditor, and its counter tracks fill the
    tracer; none of them keeps the cluster alive, and the result holds
    the audit summary, never the auditor."""
    with collector_off():
        with tracer.capture() as trace, timeseries.capture(interval=0.5):
            result = run_chaos(seed=101)
        assert result.ok and result.audit["unwaived"] == 0
        assert any(event.category == "telemetry" for event in trace.events)
        assert_all_freed(simulators)  # the tracer is still held here


def test_warm_double_failure_recovery_frees_its_cluster(simulators):
    """Table 2's 4 MB byte-range task."""
    key = ("raidp", "byte_range", 4 * units.MiB, 0, 1)
    with collector_off():
        assert table2_recovery.run_task(key) > 0
        assert_all_freed(simulators)


@pytest.mark.parametrize("profiled", [False, True])
def test_hdfs3_dfsio_write_frees_its_cluster(profiled):
    """Profiled too: the profiler keeps the switch (a flush-hook owner)
    alive for its report, and is dropped with its capture block."""
    with collector_off():
        with simprofile.capture() if profiled else contextlib.nullcontext():
            dfs = build_hdfs(3, Scale(), seed=1)
            assert dfsio_write(dfs, 256 * units.MiB).runtime > 0
        ref = weakref.ref(dfs)
        del dfs
        assert ref() is None
        assert gc.collect() == 0


def test_rewrite_dfsio_write_frees_its_cluster():
    """The re-write variant: lazily derived fillers and the Lstor
    stacks' preallocation baselines hold no back-reference."""
    with collector_off():
        dfs = build_raidp(Scale(), seed=1, update_oriented=True)
        assert dfsio_write(dfs, 256 * units.MiB).runtime > 0
        dfs.verify_parity()
        ref = weakref.ref(dfs)
        del dfs
        assert ref() is None
        assert gc.collect() == 0


def test_restored_cluster_frees_itself_and_rebinds_its_namenode():
    blob = snapshot.capture(build_raidp(Scale(), seed=1))
    with collector_off():
        restored = snapshot.restore(blob)
        assert all(dn.namenode is restored.namenode for dn in restored.datanodes)
        report = RecoveryManager(restored).recover(
            ("n0", "n1"), RecoveryOptions(chunk_size=64 * units.MiB),
            reconstruct_only=True,
        )
        assert report.duration > 0
        ref = weakref.ref(restored)
        del restored
        assert ref() is None
        assert gc.collect() == 0


def test_ext_scale_sampled_point_frees_its_cluster(simulators):
    """Both phases of a RAIDP point run on one simulator under the
    caller's sampler, which keeps no cluster alive once it is dropped."""
    with collector_off():
        with timeseries.capture(interval=0.25):
            ext_scale.run_task(("raidp", 16, 1))
        assert len(simulators) == 1
        assert_all_freed(simulators)


# ----------------------------------------------------------------------
# The engine's half: processes and their failures.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("crash", [False, True])
def test_finished_process_dies_on_del(crash):
    """Processes take no weak references (``__slots__``); the body
    generator, which only its process holds, stands in for it."""
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        if crash:
            raise ValueError("boom")
        return 7

    def waiter(proc):
        with contextlib.suppress(ValueError):
            yield proc

    with collector_off():
        proc = sim.process(body())
        sim.process(waiter(proc))
        sim.run()
        assert proc.triggered and (proc._exception is None) is not crash
        assert sys.getrefcount(proc) == 2  # this frame's name and the call's argument
        ref = weakref.ref(proc.body)
        del proc
        assert ref() is None
        assert gc.collect() == 0


def test_unobserved_crash_keeps_its_frames():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(crasher())
    with pytest.raises(ValueError, match="boom") as info:
        sim.run()
    frames = [frame.name for frame in traceback.extract_tb(info.value.__traceback__)]
    assert frames[-2:] == ["_resume", "crasher"]


def test_observed_failure_drops_its_frames_when_run_returns():
    sim = Simulator()
    caught = []

    def crasher():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def waiter():
        try:
            yield sim.process(crasher())
        except ValueError as exc:
            assert exc.__traceback__ is not None  # still whole inside the run
            caught.append(exc)

    sim.process(waiter())
    sim.run()
    (failure,) = caught
    assert str(failure) == "boom" and failure.__traceback__ is None
