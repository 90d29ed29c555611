"""Unit and property tests for the systematic Reed-Solomon codec."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.gf256 import GF256
from repro.ec.reed_solomon import ReedSolomon
from repro.errors import CodingError


def make_shards(k, length, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]


def test_encode_decode_roundtrip_all_shards_present():
    rs = ReedSolomon(4, 2)
    data = make_shards(4, 128)
    parity = rs.encode(data)
    shards = {i: s for i, s in enumerate(data)}
    shards.update({4 + i: p for i, p in enumerate(parity)})
    decoded = rs.decode(shards)
    for original, recovered in zip(data, decoded):
        assert np.array_equal(original, recovered)


def test_decode_from_every_k_subset():
    """MDS: any k of the n shards suffice."""
    rs = ReedSolomon(3, 2)
    data = make_shards(3, 64, seed=7)
    parity = rs.encode(data)
    all_shards = {i: s for i, s in enumerate(data)}
    all_shards.update({3 + i: p for i, p in enumerate(parity)})
    for subset in itertools.combinations(range(5), 3):
        shards = {i: all_shards[i] for i in subset}
        decoded = rs.decode(shards)
        for original, recovered in zip(data, decoded):
            assert np.array_equal(original, recovered)


def test_too_few_shards_raises():
    rs = ReedSolomon(4, 2)
    data = make_shards(4, 32)
    with pytest.raises(CodingError):
        rs.decode({0: data[0], 1: data[1], 2: data[2]})


def test_reconstruct_single_data_shard():
    rs = ReedSolomon(5, 1)
    data = make_shards(5, 100, seed=3)
    parity = rs.encode(data)
    shards = {i: s for i, s in enumerate(data) if i != 2}
    shards[5] = parity[0]
    assert np.array_equal(rs.decode(shards)[2], data[2])


def test_reconstruct_parity_shard():
    """A lost parity shard is the re-encoding of the decoded data."""
    rs = ReedSolomon(3, 2)
    data = make_shards(3, 50, seed=11)
    parity = rs.encode(data)
    shards = {i: s for i, s in enumerate(data)}
    shards[3] = parity[0]
    assert np.array_equal(rs.encode(rs.decode(shards))[1], parity[1])


def test_single_parity_recovers_any_one_shard():
    """A (k, 1) code tolerates any single erasure -- the stacked-Lstor
    degenerate case.  (The generator is Vandermonde-derived, so the parity
    is a weighted XOR rather than the plain XOR a standalone Lstor uses.)"""
    rs = ReedSolomon(4, 1)
    data = make_shards(4, 64, seed=5)
    parity = rs.encode(data)
    assert set(rs.parity_rows()[0]) != {1}
    all_shards = {i: s for i, s in enumerate(data)}
    all_shards[4] = parity[0]
    for missing in range(5):
        survivors = {i: s for i, s in all_shards.items() if i != missing}
        decoded = rs.decode(survivors)
        assert all(np.array_equal(d, e) for d, e in zip(decoded, data))
        assert np.array_equal(rs.encode(decoded)[0], parity[0])


def _updated(rs, parity, shard, old, new):
    """``parity`` after shard ``shard`` changes from ``old`` to ``new``:
    each parity adds its generator coefficient times ``old ^ new``, the
    update a stacked Lstor's row makes."""
    delta = np.bitwise_xor(old, new)
    return [
        np.bitwise_xor(p, GF256.mul_bytes(row[shard], delta))
        for p, row in zip(parity, rs.parity_rows())
    ]


def test_parity_delta_equals_reencoding():
    rs = ReedSolomon(4, 2)
    data = make_shards(4, 64, seed=9)
    parity = rs.encode(data)
    new_shard = make_shards(1, 64, seed=10)[0]
    updated = _updated(rs, parity, 1, data[1], new_shard)
    data[1] = new_shard
    expected = rs.encode(data)
    for u, e in zip(updated, expected):
        assert np.array_equal(u, e)


def test_shard_length_mismatch_raises():
    rs = ReedSolomon(2, 1)
    with pytest.raises(CodingError):
        rs.encode([np.zeros(10, dtype=np.uint8), np.zeros(11, dtype=np.uint8)])


def test_wrong_shard_count_raises():
    rs = ReedSolomon(3, 1)
    with pytest.raises(CodingError):
        rs.encode(make_shards(2, 16))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ReedSolomon(0, 2)
    with pytest.raises(ValueError):
        ReedSolomon(200, 100)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    p=st.integers(min_value=1, max_value=3),
    length=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_roundtrip_after_random_erasures(k, p, length, seed):
    rng = np.random.default_rng(seed)
    rs = ReedSolomon(k, p)
    data = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
    parity = rs.encode(data)
    all_shards = {i: s for i, s in enumerate(data)}
    all_shards.update({k + i: s for i, s in enumerate(parity)})
    erased = rng.choice(k + p, size=min(p, k + p - k), replace=False)
    surviving = {i: s for i, s in all_shards.items() if i not in set(int(e) for e in erased)}
    decoded = rs.decode(surviving)
    for original, recovered in zip(data, decoded):
        assert np.array_equal(original, recovered)


@settings(max_examples=20, deadline=None)
@given(
    shard=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_parity_delta_consistency(shard, seed):
    rng = np.random.default_rng(seed)
    rs = ReedSolomon(4, 2)
    data = [rng.integers(0, 256, size=32, dtype=np.uint8) for _ in range(4)]
    parity = rs.encode(data)
    new = rng.integers(0, 256, size=32, dtype=np.uint8)
    updated = _updated(rs, parity, shard, data[shard], new)
    data[shard] = new
    for u, e in zip(updated, rs.encode(data)):
        assert np.array_equal(u, e)
