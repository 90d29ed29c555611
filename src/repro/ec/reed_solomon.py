"""Systematic Reed-Solomon codec over GF(2^8).

The generator matrix is derived from an (n x k) Vandermonde matrix whose
top k x k block is reduced to the identity (the standard construction used
by Jerasure, Backblaze, and others).  Because every k x k submatrix of a
Vandermonde matrix is invertible, the resulting code is MDS: the original
data is recoverable from *any* k of the n shards.

Stacked Lstors (paper Section 3.3) take this codec's parity rows as
their coefficients: k parities over a disk's superchunks tolerate k
Lstor-assisted superchunk losses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.ec.gf256 import GF256
from repro.errors import CodingError


class ReedSolomon:
    """An (n = data + parity, k = data) systematic Reed-Solomon code."""

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards < 1 or parity_shards < 0:
            raise ValueError("need data_shards >= 1 and parity_shards >= 0")
        if data_shards + parity_shards > GF256.ORDER:
            raise ValueError("total shards cannot exceed 256 in GF(256)")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards
        self._matrix = self._build_matrix(data_shards, self.total_shards)

    @staticmethod
    def _build_matrix(k: int, n: int) -> List[List[int]]:
        """An n x k generator whose top k x k block is the identity."""
        vandermonde = GF256.vandermonde(n, k)
        top = [row[:] for row in vandermonde[:k]]
        top_inv = GF256.mat_invert(top)
        return GF256.mat_mul(vandermonde, top_inv)

    def parity_rows(self) -> List[List[int]]:
        """The generator's parity rows: parity ``j`` is ``sum_i
        rows[j][i] * data_i``."""
        return [list(row) for row in self._matrix[self.data_shards:]]

    # ------------------------------------------------------------------
    # Encoding.
    # ------------------------------------------------------------------
    def encode(self, data: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Compute parity shards for ``data`` (k equal-length byte arrays).

        Returns the parity shards only; the code is systematic so the data
        shards are stored as-is.
        """
        shards = self._as_arrays(data, self.data_shards)
        length = len(shards[0])
        parities = []
        for parity_index in range(self.parity_shards):
            row = self._matrix[self.data_shards + parity_index]
            accum = np.zeros(length, dtype=np.uint8)
            for coeff, shard in zip(row, shards):
                GF256.addmul_bytes(accum, coeff, shard)
            parities.append(accum)
        return parities

    # ------------------------------------------------------------------
    # Decoding.
    # ------------------------------------------------------------------
    def decode(self, shards: Dict[int, np.ndarray]) -> List[np.ndarray]:
        """Reconstruct all k data shards from any k available shards.

        ``shards`` maps shard index (0..n-1; parity shards follow data
        shards) to its byte array.  Raises :class:`CodingError` when fewer
        than k shards are supplied.
        """
        if len(shards) < self.data_shards:
            raise CodingError(
                f"need {self.data_shards} shards to decode, have {len(shards)}"
            )
        available = sorted(shards)[: self.data_shards]
        arrays = self._as_arrays([shards[i] for i in available], self.data_shards)
        submatrix = [self._matrix[i] for i in available]
        inverse = GF256.mat_invert(submatrix)
        length = len(arrays[0])
        data = []
        for row in inverse:
            accum = np.zeros(length, dtype=np.uint8)
            for coeff, shard in zip(row, arrays):
                GF256.addmul_bytes(accum, coeff, shard)
            data.append(accum)
        return data

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------
    @staticmethod
    def _as_arrays(shards: Sequence[np.ndarray], expected: int) -> List[np.ndarray]:
        if len(shards) != expected:
            raise CodingError(f"expected {expected} shards, got {len(shards)}")
        arrays = [np.asarray(s, dtype=np.uint8) for s in shards]
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1:
            raise CodingError(f"shard length mismatch: {sorted(lengths)}")
        return arrays

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ReedSolomon {self.data_shards}+{self.parity_shards}>"
