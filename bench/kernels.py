"""Kernel pass: layers the workloads barely time on their own.

Every kernel has fixed inputs (no ``--seed``), times only its own work,
and reports the median of :data:`SAMPLES` runs.  :func:`calibrate` is the
fixed pure-Python + numpy loop run before and after every workload; a
drift above :data:`CALIB_DRIFT` between the two marks the run ``noisy``.
:func:`host_level` is its 6 ms sibling, read between the tasks of every
repetition to take the shared host's slow spells out of the times.
"""

from __future__ import annotations

import statistics
import time
import zlib
from typing import Callable, Dict, Generator

import numpy as np

from repro import units
from repro.core.layout import rotational_layout
from repro.ec.raid6 import pq_encode, pq_recover_two_data
from repro.ec.reed_solomon import ReedSolomon
from repro.experiments.common import Scale, build_raidp
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.sim import snapshot
from repro.sim.disk import Disk
from repro.sim.engine import Simulator
from repro.sim.network import Nic, Switch
from repro.storage.payload import BytesPayload

SAMPLES = 5
CALIB_DRIFT = 0.10

_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407


def _lcg(state: int) -> int:
    return (state * _LCG_MUL + _LCG_ADD) % (1 << 64)


def calibrate() -> float:
    """Seconds for a fixed interpreter + numpy loop (host speed probe).

    Median of three passes: the first pass of a fresh process also pays
    page faults and allocator warm-up, which is not host drift.
    """
    buf = np.arange(units.MiB, dtype=np.uint8)
    acc = np.zeros_like(buf)

    def one_pass() -> float:
        start = time.perf_counter()
        state = 1
        for _ in range(400_000):
            state = _lcg(state)
        for _ in range(300):
            np.bitwise_xor(acc, buf, out=acc)
        return time.perf_counter() - start

    return statistics.median(one_pass() for _ in range(3))


#: What the two halves of :func:`host_level` take on the quiet sandbox the
#: baseline was measured on (their medians there).  On another machine
#: every level, and so every corrected time, moves by one constant factor.
LEVEL_PY_S, LEVEL_NP_S = 4.10e-3, 2.13e-3
_LEVEL_BUF = np.arange(units.MiB, dtype=np.uint8)
_LEVEL_ACC = np.zeros_like(_LEVEL_BUF)


def host_level() -> float:
    """How slow the host is right now: 1.0 on the quiet sandbox, 1.3 when
    it runs this 6 ms interpreter + numpy loop 30 % slower."""
    start = time.perf_counter()
    state = 1
    for _ in range(20_000):
        state = _lcg(state)
    middle = time.perf_counter()
    for _ in range(40):
        np.bitwise_xor(_LEVEL_ACC, _LEVEL_BUF, out=_LEVEL_ACC)
    end = time.perf_counter()
    return ((middle - start) / LEVEL_PY_S + (end - middle) / LEVEL_NP_S) / 2.0


def _dispatch(events: int = 200_000) -> float:
    sim = Simulator()

    def ticker() -> Generator:
        for _ in range(events):
            yield sim.timeout(0.001)

    sim.process(ticker())
    start = time.perf_counter()
    sim.run()
    return (time.perf_counter() - start) / events * 1e9


def _flow_churn(num_nics: int = 96, num_flows: int = 768) -> float:
    sim = Simulator()
    switch = Switch(sim)
    nics = [switch.attach(Nic(f"n{i}", units.gbps(10))) for i in range(num_nics)]

    def feeder() -> Generator:
        state = 0x2545F4914F6CDD1D
        for _ in range(num_flows):
            state = _lcg(state)
            src = nics[state % num_nics]
            dst = nics[(state >> 8) % num_nics]
            if dst is src:
                dst = nics[(state % num_nics + 1) % num_nics]
            switch.transfer(src, dst, 4 * units.MiB + (state >> 16) % (16 * units.MiB))
            yield sim.timeout(0.0005)

    sim.process(feeder())
    start = time.perf_counter()
    sim.run()
    return (time.perf_counter() - start) / num_flows * 1e6


def _disk_io(ios: int = 20_000) -> float:
    sim = Simulator()
    disk = Disk(sim)

    def body() -> Generator:
        state = 7
        for index in range(ios):
            state = _lcg(state)
            offset = (state >> 20) % (64 * units.GiB)
            if index % 2:
                yield from disk.write(offset, 64 * units.KiB)
            else:
                yield from disk.read(offset, 64 * units.KiB)

    sim.process(body())
    start = time.perf_counter()
    sim.run()
    return (time.perf_counter() - start) / ios * 1e6


def _timed(work: Callable[[], object]) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def run_kernels(samples: int = SAMPLES) -> Dict[str, float]:
    """Every *kernel* per-layer metric, median of ``samples`` runs each."""

    def median(sample: Callable[[], float]) -> float:
        return statistics.median(sample() for _ in range(samples))

    rng = np.random.default_rng(7)

    def block() -> np.ndarray:
        return rng.integers(0, 256, size=units.MiB, dtype=np.uint8)

    blob = snapshot.capture(build_raidp(Scale(), seed=1))

    payload = BytesPayload.adopt(block())
    accum = payload.mutable_copy()
    repeats = 64

    def xor_into() -> None:
        for _ in range(repeats):
            payload.xor_into(accum)

    def crc() -> None:
        for _ in range(repeats):
            zlib.crc32(payload.data)  # what BytesPayload.checksum() runs, uncached

    stripe = [block() for _ in range(8)]
    stripe_mb = len(stripe) * units.MiB / units.MB
    p, q = pq_encode(stripe)
    survivors = {i: d for i, d in enumerate(stripe) if i not in (2, 5)}
    code = ReedSolomon(6, 2)
    shards = dict(enumerate(stripe[:6] + code.encode(stripe[:6])))
    degraded = {i: s for i, s in shards.items() if i not in (1, 4)}

    state = 11
    graph: Dict[int, list] = {}
    for left in range(512):
        rights = []
        for _ in range(4):
            state = _lcg(state)
            rights.append((state >> 16) % 512)
        graph[left] = rights

    gb = repeats * units.MiB / units.GB
    return {
        "sim.engine.dispatch_ns": median(_dispatch),
        "sim.network.flow_us": median(_flow_churn),
        "sim.disk.io_us": median(_disk_io),
        "sim.snapshot.restore_ms": median(lambda: _timed(lambda: snapshot.restore(blob)) * 1e3),
        "storage.payload.xor_into_gbps": median(lambda: gb / _timed(xor_into)),
        "storage.payload.crc_gbps": median(lambda: gb / _timed(crc)),
        "ec.raid6.encode_mbps": median(lambda: stripe_mb / _timed(lambda: pq_encode(stripe))),
        "ec.raid6.recover2_mbps": median(
            lambda: stripe_mb / _timed(lambda: pq_recover_two_data(survivors, 2, 5, p, q))
        ),
        "ec.rs.decode_mbps": median(
            lambda: 6 * units.MiB / units.MB / _timed(lambda: code.decode(degraded))
        ),
        "core.layout.plan_ms": median(lambda: _timed(lambda: rotational_layout(256)) * 1e3),
        "matching.hk_ms": median(lambda: _timed(lambda: hopcroft_karp(graph)) * 1e3),
    }
