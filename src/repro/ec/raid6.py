"""RAID-6 (P+Q) array code.

The classic RAID-6 construction stores, per stripe of ``k`` data blocks
``D_0..D_{k-1}``::

    P = D_0 ^ D_1 ^ ... ^ D_{k-1}
    Q = g^0*D_0 ^ g^1*D_1 ^ ... ^ g^{k-1}*D_{k-1}     (g = 2 in GF(256))

Two data erasures are solved in closed form from P and Q.  Table 2's
RAID-6 rows time a full-array rebuild on the disk and switch models
(``core.recovery._Raid6Rig``) and never call this module; the codec is
what the bench kernels time and the tests hold bit-exact.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.ec.gf256 import GF256
from repro.errors import CodingError


def pq_encode(data: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Compute the P and Q parities for one stripe of data blocks."""
    if not data:
        raise CodingError("empty stripe")
    arrays = [np.asarray(d, dtype=np.uint8) for d in data]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise CodingError("stripe block length mismatch")
    p = np.zeros(length, dtype=np.uint8)
    q = np.zeros(length, dtype=np.uint8)
    for index, block in enumerate(arrays):
        np.bitwise_xor(p, block, out=p)
        GF256.addmul_bytes(q, GF256.exp(index), block)
    return p, q


def pq_recover_two_data(
    data: Dict[int, np.ndarray],
    missing_x: int,
    missing_y: int,
    p: np.ndarray,
    q: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the classic two-data-erasure case from P and Q.

    With ``Pxy``/``Qxy`` the parities of the surviving blocks alone::

        D_x = A*(P ^ Pxy) ^ B*(Q ^ Qxy)
        D_y = (P ^ Pxy) ^ D_x

    where ``A = g^{y-x} / (g^{y-x} ^ 1)`` and ``B = g^{-x} / (g^{y-x} ^ 1)``.
    """
    if missing_x == missing_y:
        raise CodingError("the two missing indices must differ")
    if missing_x > missing_y:
        missing_x, missing_y = missing_y, missing_x
    p_arr = np.asarray(p, dtype=np.uint8)
    q_arr = np.asarray(q, dtype=np.uint8)
    pxy = np.zeros_like(p_arr)
    qxy = np.zeros_like(q_arr)
    for index, block in data.items():
        if index in (missing_x, missing_y):
            raise CodingError("missing block supplied as survivor")
        arr = np.asarray(block, dtype=np.uint8)
        np.bitwise_xor(pxy, arr, out=pxy)
        GF256.addmul_bytes(qxy, GF256.exp(index), arr)
    p_delta = np.bitwise_xor(p_arr, pxy)
    q_delta = np.bitwise_xor(q_arr, qxy)

    g_yx = GF256.exp(missing_y - missing_x)
    denom = g_yx ^ 1
    coeff_a = GF256.div(g_yx, denom)
    coeff_b = GF256.div(GF256.inv(GF256.exp(missing_x)), denom)

    d_x = GF256.mul_bytes(coeff_a, p_delta)
    np.bitwise_xor(d_x, GF256.mul_bytes(coeff_b, q_delta), out=d_x)
    d_y = np.bitwise_xor(p_delta, d_x)
    return d_x, d_y
