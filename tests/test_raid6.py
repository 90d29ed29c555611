"""Unit tests for the RAID-6 P+Q code."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.raid6 import pq_encode, pq_recover_two_data
from repro.errors import CodingError


def make_stripe(k, length, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]


def test_p_is_xor_of_data():
    data = make_stripe(4, 32)
    p, _q = pq_encode(data)
    expected = np.zeros(32, dtype=np.uint8)
    for block in data:
        np.bitwise_xor(expected, block, out=expected)
    assert np.array_equal(p, expected)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_recover_two_data_blocks_property(k, seed):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size=48, dtype=np.uint8) for _ in range(k)]
    p, q = pq_encode(data)
    x, y = sorted(rng.choice(k, size=2, replace=False))
    survivors = {i: d for i, d in enumerate(data) if i not in (int(x), int(y))}
    d_x, d_y = pq_recover_two_data(survivors, int(x), int(y), p, q)
    assert np.array_equal(d_x, data[int(x)])
    assert np.array_equal(d_y, data[int(y)])


def test_recover_two_rejects_equal_indices():
    data = make_stripe(4, 16)
    p, q = pq_encode(data)
    with pytest.raises(CodingError):
        pq_recover_two_data({0: data[0], 1: data[1]}, 2, 2, p, q)


def test_recover_rejects_survivor_marked_missing():
    data = make_stripe(4, 16)
    p, q = pq_encode(data)
    with pytest.raises(CodingError):
        pq_recover_two_data({i: d for i, d in enumerate(data)}, 0, 1, p, q)


def test_empty_stripe_rejected():
    with pytest.raises(CodingError):
        pq_encode([])
