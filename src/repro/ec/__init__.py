"""Erasure-coding substrate built from scratch.

The "stacked Lstors" extension (k local parities tolerating k+1
failures) takes its coefficients from a real erasure code, and the
RAID-6 comparator's code is kept bit-exact beside it:

- :mod:`repro.ec.gf256` -- arithmetic in GF(2^8) with log/antilog tables
  and numpy-vectorized bulk operations; payload terms carry its
  elements as coefficients.
- :mod:`repro.ec.reed_solomon` -- a systematic Reed-Solomon codec built
  from a Vandermonde-derived generator matrix; decodes from any k of n
  shards (MDS).  A stack's parity rows are its generator's.
- :mod:`repro.ec.raid6` -- the classic P+Q array code with closed-form
  two-erasure recovery.  Table 2's RAID-6 rows are a timing rig
  (``core.recovery._Raid6Rig``) and do not use it.
"""

from repro.ec.gf256 import GF256
from repro.ec.reed_solomon import ReedSolomon
from repro.ec.raid6 import pq_encode, pq_recover_two_data

__all__ = [
    "GF256",
    "ReedSolomon",
    "pq_encode",
    "pq_recover_two_data",
]
