"""Payload substrate: block and parity content as sets of mint terms.

Functional tests need bit-exact parity and recovery; timing experiments
simulate hundreds of gigabytes that cannot live in memory.  One
representation serves both: a :class:`Payload` is a frozenset of *mint
terms* -- the deterministic PCG64 stream of one ``(name, version)``,
whole or cut to a byte window at an offset -- plus an optional dense
residue, over a fixed length.  XOR is symmetric difference of the terms
(residues XOR bytewise), so a parity, its checks and a rebuild's fold
cancel by set algebra and draw nothing; the zero is the empty set.
:attr:`Payload.data` draws the terms' streams only when a reader needs
bytes (CRCs, Reed-Solomon rows, an ``==`` whose term sets differ).

:class:`ContentFactory` mints the payload of a given (name, version), so
experiments can verify recovered data without retaining originals.
"""

from repro.storage.payload import ContentFactory, Payload

__all__ = ["ContentFactory", "Payload"]
