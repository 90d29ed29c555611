"""Payload representations shared by the data and parity planes.

See the package docstring for the byte/token duality.  All payloads are
immutable value objects: every operation returns a new payload, which
keeps journal records trivially correct (a record's "old data" snapshot
cannot be mutated from underneath it).
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np
from repro.sim.snapshot import InlineState


class Payload(InlineState):
    """Common interface of both payload planes."""

    def xor(self, other: "Payload") -> "Payload":
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def checksum(self) -> int:
        """A content checksum stable across processes and runs.

        Both planes derive it from CRC32 (never ``hash()``, whose
        str/bytes hashing is randomized per process), so checksums may
        be persisted, fingerprinted, and compared across worker
        processes.
        """
        raise NotImplementedError

    def __xor__(self, other: "Payload") -> "Payload":
        return self.xor(other)

    # Subclasses implement __eq__/__hash__.


def _is_safely_immutable(arr: np.ndarray) -> bool:
    """True if ``arr`` can never be written through any live reference.

    Walking the base chain catches the trap of a read-only *view* whose
    underlying buffer is still writable through the base array.
    """
    if arr.flags.writeable:
        return False
    base = arr.base
    while base is not None:
        if isinstance(base, np.ndarray):
            if base.flags.writeable:
                return False
            base = base.base
        else:
            # Non-ndarray buffer owner (e.g. the ``bytes`` object behind
            # ``np.frombuffer``): immutable iff the owner is immutable.
            return isinstance(base, bytes)
    return True


class BytesPayload(Payload):
    """A real byte buffer (numpy uint8), fixed length.

    Construction is copy-free whenever the source is provably immutable
    (``bytes`` via ``np.frombuffer``, or a read-only array whose whole
    base chain is read-only); only writable sources are copied.  Fresh
    buffers produced by payload arithmetic are adopted without a copy via
    :meth:`adopt`.

    A minted payload (:meth:`ContentFactory.make`) is *deferred*: it
    holds ``(stable seed, length)`` in ``_mint`` and, while ``_data`` is
    None, draws its bytes on the first :attr:`data` read, so a version
    overwritten before anything reads it is never made.  ``len()``
    answers from the spec.  The spec stays the mint's identity after the
    draw: two mints of one spec hold equal bytes, so ``==`` answers
    ``True`` for them (or for the same object) without reading any; any
    other pair compares bytes.  Verifier reads (``==``,
    :meth:`checksum`, :func:`xor_matches`) go through :meth:`peek`,
    which caches only the CRC: an observer never leaves a mint drawn.
    """

    __slots__ = ("_data", "_mint", "_crc", "_zero")

    def __init__(self, data: Union[bytes, np.ndarray]) -> None:
        if isinstance(data, bytes):
            # frombuffer on bytes is a zero-copy read-only view backed by
            # the immutable bytes object itself.
            arr = np.frombuffer(data, dtype=np.uint8)
        elif isinstance(data, (bytearray, memoryview)):
            arr = np.frombuffer(data, dtype=np.uint8).copy()
        else:
            arr = np.asarray(data, dtype=np.uint8)
            if not _is_safely_immutable(arr):
                # Copy so the payload owns its buffer (immutability).
                arr = arr.copy()
        arr.setflags(write=False)
        self._data: Optional[np.ndarray] = arr
        self._mint: Optional[Tuple[int, int]] = None
        self._crc: Optional[int] = None
        self._zero: Optional[bool] = None

    @classmethod
    def adopt(cls, arr: np.ndarray) -> "BytesPayload":
        """Wrap a freshly allocated array without copying.

        The caller transfers ownership: it must not retain any writable
        reference to ``arr`` (or its base) after adoption.  This is the
        allocation-free path used by the XOR/codec kernels.
        """
        payload = cls.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        payload._data = arr
        payload._mint = None
        payload._crc = None
        payload._zero = None
        return payload

    @classmethod
    def minted(cls, seed: int, length: int) -> "BytesPayload":
        """The deferred mint of ``length`` bytes of PCG64 stream ``seed``."""
        payload = cls.__new__(cls)
        payload._data = None
        payload._mint = (seed, length)
        payload._crc = None
        payload._zero = None
        return payload

    @property
    def data(self) -> np.ndarray:
        """The content, read-only; a deferred mint draws it here, once."""
        data = self._data
        if data is None:
            assert self._mint is not None
            data = self._data = _draw(*self._mint)
        return data

    def peek(self) -> np.ndarray:
        """The content, read-only, without making a mint: an undrawn one
        is drawn into a temporary that dies with the caller's use."""
        data = self._data
        if data is None:
            assert self._mint is not None
            data = _draw(*self._mint)
        return data

    @classmethod
    def zeros(cls, length: int) -> "BytesPayload":
        payload = cls.adopt(np.zeros(length, dtype=np.uint8))
        payload._zero = True
        return payload

    def xor(self, other: Payload) -> "BytesPayload":
        if not isinstance(other, BytesPayload):
            raise TypeError("cannot XOR bytes with symbolic payload")
        if len(self) != len(other):
            raise ValueError(f"payload length mismatch: {len(self)} vs {len(other)}")
        # XOR with a payload already known to be zero is the other operand
        # itself (both are immutable): first writes, deletes and installs
        # into empty slots allocate and compute nothing.
        if other._zero:
            return self
        if self._zero:
            return other
        return BytesPayload.adopt(np.bitwise_xor(self.data, other.data))

    def xor_into(self, accum: np.ndarray) -> None:
        """``accum ^= self`` in place, no allocation.

        ``accum`` must be a writable uint8 array of matching length owned
        by the caller; it is never retained.  This keeps long XOR chains
        (parity absorption, superchunk reconstruction) copy-free while the
        payload itself stays immutable.  A payload known to be zero (see
        :meth:`xor`) changes nothing and computes nothing.
        """
        if len(accum) != len(self):
            raise ValueError(f"payload length mismatch: {len(accum)} vs {len(self)}")
        if not self._zero:
            np.bitwise_xor(accum, self.data, out=accum)

    def mutable_copy(self) -> np.ndarray:
        """A writable copy of the content, for use as an XOR accumulator."""
        return self.data.copy()

    def is_zero(self) -> bool:
        """Cached like the CRC: computed once, never assumed from the source.

        A deferred mint draws only its first 64-bit word: a nonzero word
        proves the content nonzero.  A zero word, or a mint shorter than
        one word, is settled by the bytes themselves.
        """
        if self._zero is None:
            spec = self._mint if self._data is None else None
            if spec is not None and spec[1] >= 8 and _draw(spec[0], 8).any():
                self._zero = False
            else:
                self._zero = not self.data.any()
        return self._zero

    def checksum(self) -> int:
        """CRC32 of the content (models HDFS's per-block checksum file).

        Cached: payloads are immutable, so the CRC can never change.
        """
        if self._crc is None:
            self._crc = zlib.crc32(self.peek())
        return self._crc

    def __len__(self) -> int:
        spec = self._mint if self._data is None else None
        return spec[1] if spec is not None else len(self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BytesPayload):
            return False
        if self is other or (self._mint is not None and self._mint == other._mint):
            return True
        return np.array_equal(self.peek(), other.peek())

    def __hash__(self) -> int:
        return hash(self.peek().tobytes())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BytesPayload len={len(self)} crc={self.checksum():08x}>"


class TokenPayload(Payload):
    """A symbolic payload: a set of opaque tokens under symmetric diff.

    A fresh write of version ``v`` of some datum is the singleton
    ``{(name, v)}``.  XOR-ing an old version against a new one yields
    ``{(name, v_old), (name, v_new)}`` -- exactly the delta an Lstor
    absorbs -- and parity consistency reduces to set equality.
    """

    __slots__ = ("tokens",)

    def __init__(self, tokens: FrozenSet[Tuple] = frozenset()) -> None:
        self.tokens = frozenset(tokens)

    @classmethod
    def zeros(cls, _length: int = 0) -> "TokenPayload":
        return cls(frozenset())

    @classmethod
    def of(cls, name: str, version: int) -> "TokenPayload":
        return cls(frozenset({(name, version)}))

    def xor(self, other: Payload) -> "TokenPayload":
        if not isinstance(other, TokenPayload):
            raise TypeError("cannot XOR symbolic payload with bytes")
        return TokenPayload(self.tokens ^ other.tokens)

    def is_zero(self) -> bool:
        return not self.tokens

    def checksum(self) -> int:
        """CRC32 over the canonically ordered token set (process-stable)."""
        return zlib.crc32(
            "\x1f".join(f"{name}\x1e{version}" for name, version in sorted(self.tokens)).encode(
                "utf-8"
            )
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TokenPayload) and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TokenPayload {sorted(self.tokens)!r}>"


class XorAccumulator(InlineState):
    """Folds payloads under XOR without a fresh allocation per step.

    In the bytes plane the accumulator owns one writable buffer and XORs
    into it in place; :meth:`result` adopts the buffer into an immutable
    payload (so the total cost of an N-term chain is one allocation, not
    N).  The buffer is copied in only when a second operand not known to
    be zero arrives: until then the fold is :meth:`BytesPayload.xor`,
    which returns the other operand of a known zero itself.  In the token
    plane it is immutable folding throughout -- token sets are tiny, so
    there is nothing to win there.
    """

    __slots__ = ("_buf", "_payload")

    def __init__(self, initial: Payload) -> None:
        self._buf: Optional[np.ndarray] = None
        self._payload = initial

    def add(self, payload: Payload) -> None:
        if self._buf is None:
            current = self._payload
            if (
                not isinstance(current, BytesPayload)
                or not isinstance(payload, BytesPayload)
                or current._zero
                or payload._zero
            ):
                # Token plane, or a known zero: no buffer, no pass.
                self._payload = current.xor(payload)
                return
            self._buf = current.mutable_copy()
        if not isinstance(payload, BytesPayload):
            raise TypeError("cannot XOR bytes with symbolic payload")
        payload.xor_into(self._buf)

    def result(self) -> Payload:
        """The folded payload; the accumulator must not be added to after."""
        if self._buf is not None:
            self._payload = BytesPayload.adopt(self._buf)
            self._buf = None  # buffer ownership transferred to the payload
        return self._payload


def cancel_equal_pairs(terms: Sequence[BytesPayload]) -> List[BytesPayload]:
    """``terms`` less every pair provably equal, since ``x ^ x = 0``:
    the same object twice, or two mints of one spec.  Known zeros go
    too.  Reads no bytes; the XOR of the result is the XOR of ``terms``."""
    left: Dict[object, BytesPayload] = {}
    for term in terms:
        if term._zero:
            continue
        key = term._mint or id(term)  # ``terms`` keeps every id alive
        if left.pop(key, None) is None:
            left[key] = term
    return list(left.values())


def xor_matches(accum: Optional[np.ndarray], terms: Sequence[BytesPayload]) -> bool:
    """Is ``accum`` (``None``: zero) the XOR of ``terms``?  Each term is
    read through :meth:`BytesPayload.peek`, two or more are folded into
    one scratch buffer; ``accum`` is only read."""
    if not terms:
        return accum is None or not accum.any()
    folded = terms[0].peek()
    if len(terms) > 1:
        folded = folded.copy()
        for term in terms[1:]:
            np.bitwise_xor(folded, term.peek(), out=folded)
    return not folded.any() if accum is None else np.array_equal(folded, accum)


def _stable_seed(seed: int, name: str, version: int) -> int:
    """A 64-bit RNG seed independent of ``PYTHONHASHSEED``.

    The previous implementation seeded the generator from
    ``hash((seed, name, version))`` -- but ``hash()`` of a ``str`` is
    randomized per interpreter process, so the *content* of minted
    payloads (and every CRC-derived fingerprint over them) differed from
    run to run and between parallel-runner workers.  Two domain-
    separated CRC32s give a stable 64-bit seed instead.
    """
    key = f"{seed}\x1f{version}\x1f{name}".encode("utf-8")
    return (zlib.crc32(b"hi\x1f" + key) << 32) | zlib.crc32(b"lo\x1f" + key)


def _draw(seed: int, length: int) -> np.ndarray:
    """The ``length`` minted bytes of stream ``seed``, frozen to the root.

    One 64-bit PCG64 draw per 8 bytes: its little-endian bytes are
    exactly the stream ``integers(0, 256, dtype=uint8)`` buffers out one
    byte at a time (pinned by the golden-content test).  The word buffer
    is frozen before the byte view is taken, so the payload's whole base
    chain is read-only and a payload built over a slice of it stays a
    view.
    """
    words = np.random.PCG64(seed).random_raw(-(-length // 8)).astype("<u8", copy=False)
    words.setflags(write=False)
    return words.view(np.uint8)[:length]


class ContentFactory(InlineState):
    """Mints deterministic payloads for named data in either plane.

    ``mode`` is ``"bytes"`` (real data, sizes must be modest) or
    ``"tokens"`` (symbolic, any size).  The factory also *re-mints* a
    payload for verification: recovered content must equal
    ``factory.make(name, version)``.  A bytes-plane mint is deferred: it
    costs two CRC32s until something reads its bytes (see
    :class:`BytesPayload`).
    """

    def __init__(self, mode: str = "bytes", seed: int = 0x5EED) -> None:
        if mode not in ("bytes", "tokens"):
            raise ValueError(f"unknown payload mode {mode!r}")
        self.mode = mode
        self.seed = seed
        self._zeros: Dict[int, BytesPayload] = {}

    @property
    def symbolic(self) -> bool:
        return self.mode == "tokens"

    def make(self, name: str, version: int, length: int) -> Payload:
        if self.mode == "tokens":
            return TokenPayload.of(name, version)
        # Deferred: the bytes are drawn (:func:`_draw`) on the first read.
        return BytesPayload.minted(_stable_seed(self.seed, name, version), length)

    def zero(self, length: int) -> Payload:
        if self.mode == "tokens":
            return TokenPayload.zeros()
        # Payloads are immutable, so every empty slot of one length can
        # share a single zero buffer.
        zero = self._zeros.get(length)
        if zero is None:
            zero = self._zeros[length] = BytesPayload.zeros(length)
        return zero
