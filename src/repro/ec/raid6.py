"""RAID-6 (P+Q) array code and the recovery-time baseline of Table 2.

The classic RAID-6 construction stores, per stripe of ``k`` data blocks
``D_0..D_{k-1}``::

    P = D_0 ^ D_1 ^ ... ^ D_{k-1}
    Q = g^0*D_0 ^ g^1*D_1 ^ ... ^ g^{k-1}*D_{k-1}     (g = 2 in GF(256))

One erasure is repaired from P (or Q); two data erasures are solved in
closed form from P and Q.  :class:`Raid6Array` wraps the math in an
array-of-disks model with enough structure for the recovery experiment:
given two failed disks, every surviving disk's full contents must be read
and shipped to rebuild both, which is what makes RAID-6 an order of
magnitude slower than RAIDP's single-superchunk rebuild in Table 2.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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


def pq_recover_one_data(
    data: Dict[int, np.ndarray], missing: int, p: np.ndarray
) -> np.ndarray:
    """Repair a single missing data block using P."""
    length = len(p)
    accum = np.asarray(p, dtype=np.uint8).copy()
    for index, block in data.items():
        if index == missing:
            raise CodingError("missing block supplied as survivor")
        np.bitwise_xor(accum, np.asarray(block, dtype=np.uint8), out=accum)
    if len(accum) != length:
        raise CodingError("length mismatch in recovery")
    return accum


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


class Raid6Array:
    """A (k data + P + Q) array of equal-size disks holding real bytes.

    Disks are indexed 0..k-1 for data, k for P, k+1 for Q.  The array is
    rotation-free (non-rotated parity) to mirror the paper's comparison;
    rotation would not change recovery *volume*, which is what Table 2
    measures.
    """

    def __init__(self, data_disks: int, disk_size: int) -> None:
        if data_disks < 2:
            raise ValueError("RAID-6 needs at least two data disks")
        self.data_disks = data_disks
        self.disk_size = disk_size
        self._data = [np.zeros(disk_size, dtype=np.uint8) for _ in range(data_disks)]
        self._p = np.zeros(disk_size, dtype=np.uint8)
        self._q = np.zeros(disk_size, dtype=np.uint8)
        self._failed: set = set()

    # ------------------------------------------------------------------
    # I/O.
    # ------------------------------------------------------------------
    def write(self, disk: int, offset: int, payload: bytes) -> None:
        """Write to a data disk, updating P and Q incrementally."""
        self._check_data_index(disk)
        if disk in self._failed:
            raise CodingError(f"write to failed disk {disk}")
        new = np.frombuffer(bytes(payload), dtype=np.uint8)
        end = offset + len(new)
        if offset < 0 or end > self.disk_size:
            raise ValueError("write outside disk")
        old = self._data[disk][offset:end].copy()
        delta = np.bitwise_xor(old, new)
        self._data[disk][offset:end] = new
        np.bitwise_xor(self._p[offset:end], delta, out=self._p[offset:end])
        GF256.addmul_bytes(self._q[offset:end], GF256.exp(disk), delta)

    def read(self, disk: int, offset: int, length: int) -> bytes:
        self._check_data_index(disk)
        if disk in self._failed:
            raise CodingError(f"read from failed disk {disk}")
        return self._data[disk][offset : offset + length].tobytes()

    def _check_data_index(self, disk: int) -> None:
        if not 0 <= disk < self.data_disks:
            raise ValueError(f"bad data disk index {disk}")

    # ------------------------------------------------------------------
    # Failure and recovery.
    # ------------------------------------------------------------------
    def fail(self, disk: int) -> None:
        self._check_data_index(disk)
        self._failed.add(disk)
        if len(self._failed) > 2:
            raise CodingError("RAID-6 cannot survive a third failure")

    def recover(self) -> Dict[str, int]:
        """Rebuild all failed disks in place.

        Returns accounting of the recovery volume: bytes read from
        survivors and bytes written to replacements.  This is the quantity
        Table 2's RAID-6 rows are made of.
        """
        failed = sorted(self._failed)
        survivors = {
            i: self._data[i] for i in range(self.data_disks) if i not in self._failed
        }
        bytes_read = 0
        if len(failed) == 1:
            rebuilt = pq_recover_one_data(survivors, failed[0], self._p)
            self._data[failed[0]] = rebuilt
            bytes_read = (len(survivors) + 1) * self.disk_size  # survivors + P
        elif len(failed) == 2:
            d_x, d_y = pq_recover_two_data(
                survivors, failed[0], failed[1], self._p, self._q
            )
            self._data[failed[0]] = d_x
            self._data[failed[1]] = d_y
            bytes_read = (len(survivors) + 2) * self.disk_size  # survivors + P + Q
        elif failed:
            raise CodingError("unrecoverable: more than two failures")
        bytes_written = len(failed) * self.disk_size
        self._failed.clear()
        return {"bytes_read": bytes_read, "bytes_written": bytes_written}

    def verify(self) -> bool:
        """Check parity consistency over the entire array."""
        p, q = pq_encode(self._data)
        return bool(np.array_equal(p, self._p) and np.array_equal(q, self._q))
