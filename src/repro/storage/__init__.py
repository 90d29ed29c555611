"""Payload substrate: block and parity content as GF(256) combinations
of mint terms.

Functional tests need bit-exact parity and recovery; timing experiments
simulate hundreds of gigabytes that cannot live in memory.  One
representation serves both: a :class:`Payload` is a combination of
*mint terms* -- the deterministic PCG64 stream of one ``(name,
version)``, whole or cut to a byte window at an offset -- each with a
nonzero GF(256) coefficient, plus an optional dense residue, over a
fixed length.  XOR adds coefficients (a term reaching 0 drops out) and
scaling multiplies them, so an XOR parity, a stack's Reed-Solomon rows,
their checks and a rebuild's solve cancel term by term and draw
nothing; the zero is the empty combination.  :attr:`Payload.data` draws
the terms' streams only when a reader needs bytes (CRCs, an ``==``
whose terms differ).

:class:`ContentFactory` mints the payload of a given (name, version), so
experiments can verify recovered data without retaining originals.
"""

from repro.storage.payload import ContentFactory, Payload

__all__ = ["ContentFactory", "Payload"]
