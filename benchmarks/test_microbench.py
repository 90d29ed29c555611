"""Microbenchmarks of the substrates (classic pytest-benchmark usage).

These track the raw speed of the building blocks -- useful when tuning
the simulator, and a regression canary for the vectorized GF(256) paths.
"""

import numpy as np
import pytest

from repro import units
from repro.ec.gf256 import GF256
from repro.ec.raid6 import pq_encode, pq_recover_two_data
from repro.ec.reed_solomon import ReedSolomon
from repro.matching.hungarian import assign
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.sim.engine import Simulator
from repro.sim.network import Nic, Switch
from repro.storage.payload import Payload


def test_bench_gf256_addmul(benchmark):
    rng = np.random.default_rng(1)
    accum = np.zeros(units.MiB, dtype=np.uint8)
    data = rng.integers(0, 256, size=units.MiB, dtype=np.uint8)
    benchmark(GF256.addmul_bytes, accum, 0x57, data)


def test_bench_rs_encode(benchmark):
    rs = ReedSolomon(10, 2)
    rng = np.random.default_rng(2)
    shards = [rng.integers(0, 256, size=256 * units.KiB, dtype=np.uint8) for _ in range(10)]
    parities = benchmark(rs.encode, shards)
    assert len(parities) == 2


def test_bench_rs_decode_two_erasures(benchmark):
    rs = ReedSolomon(10, 2)
    rng = np.random.default_rng(3)
    data = [rng.integers(0, 256, size=64 * units.KiB, dtype=np.uint8) for _ in range(10)]
    parity = rs.encode(data)
    shards = {i: s for i, s in enumerate(data) if i not in (2, 7)}
    shards[10], shards[11] = parity
    decoded = benchmark(rs.decode, shards)
    assert np.array_equal(decoded[2], data[2])


def test_bench_raid6_double_recovery(benchmark):
    rng = np.random.default_rng(4)
    data = [rng.integers(0, 256, size=units.MiB, dtype=np.uint8) for _ in range(8)]
    p, q = pq_encode(data)
    survivors = {i: d for i, d in enumerate(data) if i not in (1, 5)}
    d1, d5 = benchmark(pq_recover_two_data, survivors, 1, 5, p, q)
    assert np.array_equal(d1, data[1])
    assert np.array_equal(d5, data[5])


def test_bench_payload_xor_allocating(benchmark):
    """XOR of two dense residues allocates a fresh payload."""
    rng = np.random.default_rng(21)
    a = Payload.adopt(rng.integers(0, 256, size=units.MiB, dtype=np.uint8))
    b = Payload.adopt(rng.integers(0, 256, size=units.MiB, dtype=np.uint8))
    result = benchmark(a.xor, b)
    assert len(result) == units.MiB


def test_bench_payload_xor_into(benchmark):
    """A residue XORed into a caller-owned buffer, no allocation."""
    rng = np.random.default_rng(22)
    a = Payload.adopt(rng.integers(0, 256, size=units.MiB, dtype=np.uint8))
    b = Payload.adopt(rng.integers(0, 256, size=units.MiB, dtype=np.uint8))
    buf = a.mutable_copy()
    benchmark(b.xor_into, buf)
    assert len(buf) == units.MiB


def test_bench_payload_checksum_cached(benchmark):
    rng = np.random.default_rng(23)
    payload = Payload.adopt(rng.integers(0, 256, size=units.MiB, dtype=np.uint8))
    payload.checksum()  # prime the cache; the benchmark measures hits
    crc = benchmark(payload.checksum)
    assert crc == payload.checksum()


def test_bench_sim_engine_event_throughput(benchmark):
    def run_events():
        sim = Simulator()

        def ticker():
            for _ in range(10_000):
                yield sim.timeout(0.001)

        sim.process(ticker())
        sim.run()
        return sim.now

    result = benchmark.pedantic(run_events, rounds=3, iterations=1)
    assert result == pytest.approx(10.0)


def test_bench_sim_engine_process_churn(benchmark):
    """Spawn-heavy pattern: many short-lived processes with one waiter
    each, exercising the deferred-bootstrap and single-callback fast
    paths."""

    def run_procs():
        sim = Simulator()

        def child():
            yield sim.timeout(0.5)
            return 1

        def parent():
            total = 0
            for _ in range(2_000):
                total += yield sim.process(child())
            return total

        return sim.run_process(parent())

    result = benchmark.pedantic(run_procs, rounds=3, iterations=1)
    assert result == 2_000


def test_bench_network_solver_churn(benchmark):
    """Incremental fair-share solver under a 512-flow churn burst.

    Same LCG history as the tier-1 event-budget guard in
    ``tests/test_network_solver.py``.
    """
    num_nics, num_flows = 64, 512

    def churn():
        sim = Simulator()
        switch = Switch(sim)
        nics = [switch.attach(Nic(f"n{i}", units.gbps(10))) for i in range(num_nics)]

        def feeder():
            state = 0x2545F4914F6CDD1D
            for _ in range(num_flows):
                state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
                src = nics[state % num_nics]
                dst = nics[(state >> 8) % num_nics]
                if dst is src:
                    dst = nics[(state % num_nics + 1) % num_nics]
                switch.transfer(src, dst, 4 * units.MiB + (state >> 16) % (16 * units.MiB))
                yield sim.timeout(0.0005)

        sim.process(feeder())
        sim.run()
        return len(switch._flows)

    assert benchmark.pedantic(churn, rounds=3, iterations=1) == 0


def test_bench_hungarian_50x50(benchmark):
    import random

    rng = random.Random(5)
    cost = [[rng.randint(1, 100) for _ in range(50)] for _ in range(50)]
    assignment, _total = benchmark(lambda: assign(cost))
    assert len(assignment) == 50


def test_bench_hopcroft_karp_dense(benchmark):
    import random

    rng = random.Random(6)
    graph = {
        f"L{i}": [f"R{j}" for j in range(100) if rng.random() < 0.2]
        for i in range(100)
    }
    matching = benchmark(hopcroft_karp, graph)
    assert len(matching) > 80
