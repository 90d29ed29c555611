"""Payloads: the content of blocks and parities, as GF(256) combinations
of mint terms.

See the package docstring for the representation.  All payloads are
immutable value objects: every operation returns a new payload, which
keeps journal records trivially correct (a record's "old data" snapshot
cannot be mutated from underneath it).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, FrozenSet, Optional, Tuple

import numpy as np
from repro.ec.gf256 import GF256
from repro.sim.snapshot import InlineState

#: A mint term: ``(seed, name, version, length)`` is the whole stream of
#: that mint, which then spans its payload; ``(seed, name, version, lo,
#: hi, at)`` is the stream's bytes ``[lo, hi)`` placed at byte ``at``.
Term = Tuple[Any, ...]
#: Terms to their GF(256) coefficients.
Coefficients = Dict[Term, int]
_NO_TERMS: FrozenSet[Term] = frozenset()
#: Shared: no payload ever mutates its map.
_NO_WEIGHTS: Coefficients = {}


class Payload(InlineState):
    """A fixed-length byte string: a GF(256) combination of mint terms
    plus an optional dense residue.

    Every term carries a nonzero coefficient: ``terms`` holds those whose
    coefficient is 1, ``weighted`` maps the others (2..255) to theirs,
    and a term is in one or neither.  Adding two payloads (XOR) adds
    coefficients, and a term whose coefficient reaches 0 drops out, so a
    version overwritten in a parity meets its own term and cancels
    exactly; over coefficient 1 alone that is the symmetric difference
    of ``terms``.  The zero is the empty combination with no buffer, and
    :meth:`scaled` multiplies every coefficient.  :attr:`data` draws the
    terms' PCG64 streams when a reader needs bytes and caches nothing:
    only :meth:`checksum` keeps what it read, the CRC.  ``==`` answers
    equal combinations and residues without reading; otherwise it draws
    the terms the two do not share and compares bytes.
    """

    __slots__ = ("terms", "weighted", "residue", "length", "_crc", "__weakref__")

    def __init__(self, data: bytes = b"") -> None:
        """The literal content ``data``, over the bytes object itself."""
        if not isinstance(data, bytes):
            raise TypeError("a payload is built from bytes; adopt() takes an array")
        self.terms = _NO_TERMS
        self.weighted = _NO_WEIGHTS
        self.residue: Optional[np.ndarray] = np.frombuffer(data, dtype=np.uint8)
        self.length = len(data)
        self._crc: Optional[int] = None

    def coefficients(self) -> Coefficients:
        """Every term mapped to its coefficient, as a new dict."""
        coefficients = dict.fromkeys(self.terms, 1)
        coefficients.update(self.weighted)
        return coefficients

    @classmethod
    def adopt(cls, arr: np.ndarray) -> "Payload":
        """Wrap a freshly allocated array as a residue, without copying.

        The caller transfers ownership: it must not retain any writable
        reference to ``arr`` (or its base) after adoption.
        """
        arr = _frozen(np.ascontiguousarray(arr, dtype=np.uint8))
        return _payload(_NO_TERMS, arr, len(arr))

    @classmethod
    def zeros(cls, length: int) -> "Payload":
        return _payload(_NO_TERMS, None, length)

    @property
    def data(self) -> np.ndarray:
        """The content, read-only, drawn afresh on every read."""
        terms, residue = self.terms, self.residue
        if not terms and not self.weighted:
            return residue if residue is not None else _frozen(np.zeros(self.length, np.uint8))
        if residue is None and len(terms) == 1 and not self.weighted:
            (term,) = terms
            if len(term) == 4:
                return _draw(_stable_seed(*term[:3]), self.length)
        buf = np.zeros(self.length, np.uint8) if residue is None else residue.copy()
        # Addition commutes: any order draws the same bytes.
        for term, coef in self.coefficients().items():
            seed, name, version, lo, hi, at = _parts(term)
            stream = _draw(_stable_seed(seed, name, version), hi)[lo:]
            GF256.addmul_bytes(buf[at:at + hi - lo], coef, stream)
        return _frozen(buf)

    def xor(self, other: "Payload") -> "Payload":
        """The sum in GF(256): coefficients add, residues XOR bytewise."""
        if not isinstance(other, Payload):
            raise TypeError(f"cannot XOR a payload with {type(other).__name__}")
        if self.length != other.length:
            raise ValueError(f"payload length mismatch: {self.length} vs {other.length}")
        # XOR with a known zero is the other operand itself.
        if not other.terms and not other.weighted and other.residue is None:
            return self
        if not self.terms and not self.weighted and self.residue is None:
            return other
        residue = self.residue
        if other.residue is not None:
            residue = (
                other.residue if residue is None
                else _frozen(np.bitwise_xor(residue, other.residue))
            )
        if not self.weighted and not other.weighted:
            return _payload(self.terms ^ other.terms, residue, self.length)
        coefficients = self.coefficients()
        for term, coef in other.coefficients().items():
            _add(coefficients, term, coef)
        return _combination(coefficients, residue, self.length)

    __xor__ = xor

    def scaled(self, coef: int) -> "Payload":
        """``coef`` times this content in GF(256): every term's
        coefficient and every residue byte multiplied, nothing drawn."""
        if coef == 1:
            return self
        if coef == 0:
            return _payload(_NO_TERMS, None, self.length)
        residue = self.residue
        if residue is not None:
            residue = _frozen(GF256.mul_bytes(coef, residue))
        coefficients = {
            term: GF256.mul(coef, mine) for term, mine in self.coefficients().items()
        }
        return _combination(coefficients, residue, self.length)

    def splice(self, at: int, patch: "Payload") -> "Payload":
        """This content with ``patch`` written over bytes ``[at, at +
        len(patch))``: ``self ^ self[at:hi] ^ patch@at``, by terms."""
        hi = at + patch.length
        if not 0 <= at <= hi <= self.length:
            raise ValueError(f"patch [{at}, {hi}) outside a {self.length}-byte payload")
        mine = self.coefficients()
        coefficients = dict(mine)
        for term, coef in mine.items():  # additions commute: any order
            _add(coefficients, _window(term, at, hi, 0, self.length), coef)
        for term, coef in patch.coefficients().items():
            _add(coefficients, _window(term, 0, patch.length, at, self.length), coef)
        residue = self.residue
        if residue is not None or patch.residue is not None:
            residue = np.zeros(self.length, np.uint8) if residue is None else residue.copy()
            residue[at:hi] = 0 if patch.residue is None else patch.residue
            residue = _frozen(residue)
        return _combination(coefficients, residue, self.length)

    def resized(self, length: int) -> "Payload":
        """The first ``length`` bytes, zero-extended: a short block in
        its slot, or a slot's head as the block."""
        if length == self.length:
            return self
        keep = min(length, self.length)
        coefficients: Coefficients = {}
        for term, coef in self.coefficients().items():
            _add(coefficients, _window(term, 0, keep, 0, length), coef)
        residue = self.residue
        if residue is not None:
            head = residue[:keep]
            residue = np.zeros(length, np.uint8)
            residue[:keep] = head
            residue = _frozen(residue)
        return _combination(coefficients, residue, length)

    def xor_into(self, accum: np.ndarray) -> None:
        """``accum ^= self`` in place; ``accum`` is only written."""
        if len(accum) != self.length:
            raise ValueError(f"payload length mismatch: {len(accum)} vs {self.length}")
        if self.terms or self.weighted or self.residue is not None:
            np.bitwise_xor(accum, self.data, out=accum)

    def mutable_copy(self) -> np.ndarray:
        """A writable copy of the content."""
        return self.data.copy()

    def is_zero(self) -> bool:
        """Known zero: no term (a mint's PCG64 window is taken as nonzero)
        and no residue byte set.  Reads only a residue."""
        if self.terms or self.weighted:
            return self.length == 0
        return self.residue is None or not self.residue.any()

    def checksum(self) -> int:
        """CRC32 of the content (models HDFS's per-block checksum file),
        stable across processes (never ``hash()``), cached."""
        if self._crc is None:
            self._crc = zlib.crc32(self.data)
        return self._crc

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        if self is other:
            return True
        if self.length != other.length:
            return False
        if self.terms == other.terms and self.weighted == other.weighted:
            mine, theirs = self.residue, other.residue
            if mine is None or theirs is None:
                rest = theirs if mine is None else mine
                return rest is None or not rest.any()
            return mine is theirs or bool(np.array_equal(mine, theirs))
        return not self.xor(other).data.any()

    def __hash__(self) -> int:
        return hash(self.data.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        residue = "" if self.residue is None else " +residue"
        return f"<Payload len={self.length} terms={sorted(self.coefficients().items())!r}{residue}>"


#: The name ``bench/kernels.py`` imports.
BytesPayload = Payload


def _payload(
    terms: FrozenSet[Term],
    residue: Optional[np.ndarray],
    length: int,
    weighted: Coefficients = _NO_WEIGHTS,
) -> Payload:
    """A payload from its parts, unchecked: a plain function, since
    every XOR builds one."""
    payload = Payload.__new__(Payload)
    payload.terms = terms
    payload.weighted = weighted
    payload.residue = residue
    payload.length = length
    payload._crc = None
    return payload


def _combination(
    coefficients: Coefficients, residue: Optional[np.ndarray], length: int
) -> Payload:
    """The payload of a term -> nonzero coefficient map."""
    terms = frozenset(term for term, coef in coefficients.items() if coef == 1)
    if len(terms) == len(coefficients):
        return _payload(terms, residue, length)
    weighted = {term: coef for term, coef in coefficients.items() if coef != 1}
    return _payload(terms, residue, length, weighted)


def _add(coefficients: Coefficients, term: Optional[Term], coef: int) -> None:
    """``coefficients += coef * term`` in place: a term whose coefficient
    reaches 0 drops out."""
    if term is not None:
        coef ^= coefficients.pop(term, 0)
        if coef:
            coefficients[term] = coef


def _parts(term: Term) -> Term:
    """``(seed, name, version, lo, hi, at)`` of a whole mint or a window."""
    return term if len(term) == 6 else (*term[:3], 0, term[3], 0)


def _window(term: Term, lo: int, hi: int, shift: int, length: int) -> Optional[Term]:
    """``term``'s bytes within ``[lo, hi)``, moved ``shift`` bytes on, as
    a term of a ``length``-byte payload (``None`` when nothing is left).
    One spelling per window, so equal windows cancel."""
    seed, name, version, start, stop, at = _parts(term)
    begin, end = max(at, lo), min(at + stop - start, hi)
    if begin >= end:
        return None
    start += begin - at
    at = begin + shift
    if start == 0 and at == 0 and end - begin == length:
        return (seed, name, version, length)
    return (seed, name, version, start, start + end - begin, at)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _stable_seed(seed: int, name: str, version: int) -> int:
    """A 64-bit RNG seed independent of ``PYTHONHASHSEED``.

    Seeding from ``hash((seed, name, version))`` would make the content
    of every mint (and every CRC-derived fingerprint over it) differ
    between interpreter processes, since ``hash()`` of a ``str`` is
    randomized per process.  Two domain-separated CRC32s give a stable
    64-bit seed instead.
    """
    key = f"{seed}\x1f{version}\x1f{name}".encode("utf-8")
    return (zlib.crc32(b"hi\x1f" + key) << 32) | zlib.crc32(b"lo\x1f" + key)


def _draw(seed: int, length: int) -> np.ndarray:
    """The ``length`` minted bytes of stream ``seed``, frozen to the root.

    One 64-bit PCG64 draw per 8 bytes: its little-endian bytes are
    exactly the stream ``integers(0, 256, dtype=uint8)`` buffers out one
    byte at a time (pinned by the golden-content test), and a shorter
    draw is a prefix of a longer one.
    """
    words = np.random.PCG64(seed).random_raw(-(-length // 8)).astype("<u8", copy=False)
    return _frozen(words).view(np.uint8)[:length]


class ContentFactory(InlineState):
    """Mints deterministic payloads for named data.

    ``make(name, version, length)`` is the one-term payload of that
    mint: it derives no seed and draws nothing until a reader needs the
    bytes.  The factory also *re-mints* a payload for verification:
    recovered content must equal ``factory.make(name, version, length)``.
    """

    def __init__(self, seed: int = 0x5EED) -> None:
        self.seed = seed
        self._zeros: Dict[int, Payload] = {}

    def make(self, name: str, version: int, length: int) -> Payload:
        return _payload(frozenset({(self.seed, name, version, length)}), None, length)

    def zero(self, length: int) -> Payload:
        zero = self._zeros.get(length)
        if zero is None:
            zero = self._zeros[length] = Payload.zeros(length)
        return zero
