"""Arithmetic in the Galois field GF(2^8).

The field is constructed over the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d), the same polynomial used by
virtually every storage erasure code (RAID-6, Jerasure, ISA-L).  Addition
is XOR; multiplication uses log/antilog tables built once at import time.

Scalar helpers operate on ints; the ``*_bytes`` helpers are vectorized
with numpy for whole-buffer encode/decode, which is what the Reed-Solomon
and RAID-6 layers use on superchunk-sized payloads.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D

#: The field generator element used to build the log tables.
GENERATOR = 0x02

_FIELD_SIZE = 256


def _build_tables() -> tuple:
    exp = [0] * (_FIELD_SIZE * 2)  # doubled so mul can skip a modulo
    log = [0] * _FIELD_SIZE
    value = 1
    for power in range(_FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    for power in range(_FIELD_SIZE - 1, _FIELD_SIZE * 2):
        exp[power] = exp[power - (_FIELD_SIZE - 1)]
    return exp, log


_EXP, _LOG = _build_tables()

# Full 256x256 multiplication table as a numpy array: lets bulk operations
# multiply a byte buffer by a scalar with one fancy-index.  Built
# vectorized -- exp[log[a] + log[b]] over an outer sum of the log table --
# instead of a 65k-iteration Python loop at import time.
_EXP_ARR = np.asarray(_EXP, dtype=np.uint8)
_LOG_ARR = np.asarray(_LOG, dtype=np.int32)
_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
_MUL_TABLE[1:, 1:] = _EXP_ARR[np.add.outer(_LOG_ARR[1:], _LOG_ARR[1:])]


class GF256:
    """Namespace of GF(2^8) operations (all methods are static)."""

    ORDER = _FIELD_SIZE

    @staticmethod
    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    @staticmethod
    def div(a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return _EXP[(_LOG[a] - _LOG[b]) % 255]

    @staticmethod
    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(256)")
        return _EXP[255 - _LOG[a]]

    @staticmethod
    def pow(base: int, exponent: int) -> int:
        if base == 0:
            return 0 if exponent != 0 else 1
        return _EXP[(_LOG[base] * exponent) % 255]

    @staticmethod
    def exp(power: int) -> int:
        """The generator raised to ``power``."""
        return _EXP[power % 255]

    # ------------------------------------------------------------------
    # Vectorized buffer operations.
    # ------------------------------------------------------------------
    @staticmethod
    def mul_bytes(scalar: int, data: np.ndarray) -> np.ndarray:
        """Multiply every byte of ``data`` by ``scalar``."""
        if scalar == 0:
            return np.zeros_like(data)
        if scalar == 1:
            return data.copy()
        return _MUL_TABLE[scalar][data]

    @staticmethod
    def addmul_bytes(accum: np.ndarray, scalar: int, data: np.ndarray) -> None:
        """``accum ^= scalar * data`` in place (the codec inner loop)."""
        if scalar == 0:
            return
        if scalar == 1:
            np.bitwise_xor(accum, data, out=accum)
        else:
            np.bitwise_xor(accum, _MUL_TABLE[scalar][data], out=accum)

    # ------------------------------------------------------------------
    # Matrix algebra over the field (small matrices: k x k decode).
    # ------------------------------------------------------------------
    @staticmethod
    def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
        rows, inner, cols = len(a), len(b), len(b[0])
        if any(len(row) != inner for row in a):
            raise ValueError("matrix dimension mismatch")
        result = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                acc = 0
                for k in range(inner):
                    acc ^= GF256.mul(a[i][k], b[k][j])
                result[i][j] = acc
        return result

    @staticmethod
    def mat_invert(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
        """Invert a square matrix by Gauss-Jordan elimination."""
        size = len(matrix)
        if any(len(row) != size for row in matrix):
            raise ValueError("matrix is not square")
        # Augment with the identity.
        work = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(matrix)]
        for col in range(size):
            # Find a pivot.
            pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
            if pivot_row is None:
                raise ValueError("matrix is singular over GF(256)")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            # Normalize the pivot row.
            pivot_inv = GF256.inv(work[col][col])
            work[col] = [GF256.mul(pivot_inv, v) for v in work[col]]
            # Eliminate the column everywhere else.
            for row in range(size):
                if row != col and work[row][col] != 0:
                    factor = work[row][col]
                    work[row] = [
                        v ^ GF256.mul(factor, p) for v, p in zip(work[row], work[col])
                    ]
        return [row[size:] for row in work]

    @staticmethod
    def vandermonde(rows: int, cols: int) -> List[List[int]]:
        """The Vandermonde matrix V[i][j] = i**j over GF(256)."""
        return [[GF256.pow(i, j) for j in range(cols)] for i in range(rows)]
