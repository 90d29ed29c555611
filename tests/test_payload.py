"""Unit and property tests for the payload planes (bytes vs tokens).

The key property: (BytesPayload, xor) and (TokenPayload, xor) are abelian
groups where every element is its own inverse, so parity identities
proved symbolically hold bitwise.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.payload import (
    BytesPayload,
    ContentFactory,
    TokenPayload,
    _is_safely_immutable,
    _stable_seed,
    cancel_equal_pairs,
    xor_matches,
)


# ----------------------------------------------------------------------
# BytesPayload.
# ----------------------------------------------------------------------
def test_bytes_xor_roundtrip():
    a = BytesPayload(b"hello world!")
    b = BytesPayload(b"HELLO WORLD?")
    assert a.xor(b).xor(b) == a
    assert (a ^ b) == a.xor(b)


def test_bytes_zero_identity():
    a = BytesPayload(b"data")
    zero = BytesPayload.zeros(4)
    assert a.xor(zero) == a
    assert zero.is_zero()
    assert not a.is_zero()


def test_bytes_immutability():
    arr = np.frombuffer(b"abcd", dtype=np.uint8)
    payload = BytesPayload(arr)
    with pytest.raises((ValueError, RuntimeError)):
        payload.data[0] = 99


def test_bytes_length_mismatch_rejected():
    with pytest.raises(ValueError):
        BytesPayload(b"ab").xor(BytesPayload(b"abc"))


def test_bytes_cross_plane_rejected():
    with pytest.raises(TypeError):
        BytesPayload(b"ab").xor(TokenPayload.of("x", 1))
    with pytest.raises(TypeError):
        TokenPayload.of("x", 1).xor(BytesPayload(b"ab"))


def test_bytes_checksum_changes_with_content():
    a = BytesPayload(b"aaaa")
    b = BytesPayload(b"aaab")
    assert a.checksum() != b.checksum()
    assert len(a) == 4


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(0, 2**31))
def test_bytes_xor_group_properties(data, seed):
    rng = np.random.default_rng(seed)
    a = BytesPayload(data)
    b = BytesPayload(rng.integers(0, 256, size=len(data), dtype=np.uint8))
    c = BytesPayload(rng.integers(0, 256, size=len(data), dtype=np.uint8))
    assert a.xor(b) == b.xor(a)  # commutative
    assert a.xor(b).xor(c) == a.xor(b.xor(c))  # associative
    assert a.xor(a).is_zero()  # self-inverse
    # Zero is the identity on either side, whether the zero is known by
    # construction, computed from adopted content, or not yet known.
    made = BytesPayload.zeros(len(data))
    found = BytesPayload.adopt(np.zeros(len(data), dtype=np.uint8))
    assert found.is_zero()  # computed here, cached from now on
    unknown = BytesPayload(bytes(len(data)))
    for zero in (made, found, unknown):
        assert a.xor(zero) == a and zero.xor(a) == a
        assert zero.xor(zero).is_zero()
    assert a.xor(made) is a and made.xor(a) is a  # nothing allocated
    assert a.xor(found) is a and found.xor(a) is a
    for zero in (made, found, unknown):  # the checks come before the shortcut
        with pytest.raises(ValueError):
            zero.xor(BytesPayload(data + b"x"))
        with pytest.raises(ValueError):
            BytesPayload(data + b"x").xor(zero)
        with pytest.raises(TypeError):
            zero.xor(TokenPayload.zeros())


@pytest.mark.parametrize("content, expected", [(b"\0\0\0\0\0", True), (b"\0\0\1\0\0", False)])
def test_is_zero_is_computed_once_never_assumed(content, expected):
    """Adopted and minted payloads do not know whether they are zero
    until asked; the answer comes from the bytes and is then cached."""
    scans = []

    class Scanned(np.ndarray):  # ndarray methods cannot be monkeypatched
        def any(self, *args, **kwargs):
            scans.append(1)
            return super().any(*args, **kwargs)

    adopted = BytesPayload.adopt(np.frombuffer(content, dtype=np.uint8).copy())
    assert adopted._zero is None
    adopted._data = adopted.data.view(Scanned)  # ``data`` itself is read-only
    assert adopted.is_zero() is expected and adopted.is_zero() is expected
    assert len(scans) == 1
    minted = ContentFactory(seed=7).make("blk_0001", 3, 64)
    assert minted._zero is None and not minted.is_zero() and minted._zero is False
    assert ContentFactory(seed=7).make("blk_0001", 3, 0).is_zero()  # vacuously
    assert BytesPayload.zeros(5)._zero is True
    assert ContentFactory().zero(5).is_zero()


def _every_constructor():
    raw = b"pickle me, all 23 bytes"
    factory = ContentFactory(seed=7)
    minted = factory.make("blk_0001", 3, 13)
    # A sub-block update's patch: a private copy, patched, then adopted.
    patched = minted.mutable_copy()
    patched[2:5] = np.frombuffer(b"XYZ", dtype=np.uint8)
    return {
        "bytes": BytesPayload(raw),
        "bytearray": BytesPayload(bytearray(raw)),
        "memoryview": BytesPayload(memoryview(raw)),
        "array": BytesPayload(np.frombuffer(raw, dtype=np.uint8).copy()),
        "adopt": BytesPayload.adopt(np.frombuffer(raw, dtype=np.uint8).copy()),
        "zeros": BytesPayload.zeros(9),
        "factory-zero": factory.zero(9),
        "minted": minted,
        "minted-empty": factory.make("blk_0001", 3, 0),
        "slice": BytesPayload(minted.data[3:11]),
        "splice": BytesPayload.adopt(patched),
        "xor": minted.xor(factory.make("blk_0002", 1, 13)),
        "xor-zero": minted.xor(factory.zero(13)),
    }


def test_verifier_reads_leave_a_mint_unmade():
    """A mint keeps its spec as its identity after the draw: ``==``
    answers two mints of one spec (drawn or not) without reading, and
    compares bytes otherwise; ``checksum()`` caches only the CRC."""
    factory = ContentFactory(seed=7)
    a, b = factory.make("blk", 1, 64), factory.make("blk", 1, 64)
    assert a == b and a._data is None and b._data is None
    b.data
    assert b._data is not None and b._mint == a._mint and a == b and a._data is None
    same = BytesPayload(b.data.tobytes())
    flipped = bytearray(b.data.tobytes())
    flipped[63] ^= 1
    assert a == same and a != BytesPayload(bytes(flipped)) and a._data is None
    assert a != factory.make("blk", 2, 64) and a._data is None
    assert a.checksum() == b.checksum() and a._crc is not None and a._data is None


def test_cancel_equal_pairs_and_xor_matches():
    """Pairs of one object or of one mint spec cancel and known zeros
    drop, reading nothing; what is left is compared by its bytes."""
    factory = ContentFactory(seed=7)
    a, b = factory.make("a", 1, 16), factory.make("b", 1, 16)
    copy = BytesPayload(factory.make("a", 1, 16).data.tobytes())
    zero = factory.zero(16)
    left = cancel_equal_pairs([a, b, zero, factory.make("a", 1, 16), copy, copy, b, b])
    assert left == [b] and left[0] is b and a._data is None and b._data is None
    assert cancel_equal_pairs([a, copy]) == [a, copy]  # equal bytes, no proof
    accum = factory.make("a", 1, 16).data ^ factory.make("b", 1, 16).data
    assert xor_matches(accum, [a, b]) and xor_matches(None, [])
    assert not xor_matches(accum, [a]) and not xor_matches(None, [a])
    assert xor_matches(None, cancel_equal_pairs([a, copy]))
    assert a._data is None and b._data is None  # read through temporaries


def test_mint_pickles_as_its_spec_until_drawn():
    """An unmade mint travels as ``(seed, length)``, a made one as bytes;
    both come back with the same content."""
    factory = ContentFactory(seed=7)
    cold = factory.make("blk_0001", 3, 65536)
    blob = pickle.dumps(cold)
    assert len(blob) < 1024 and cold._data is None
    thawed = pickle.loads(blob)
    assert thawed._data is None and thawed._mint == cold._mint
    drawn = factory.make("blk_0001", 3, 65536)
    drawn.data
    again = pickle.loads(pickle.dumps(drawn))
    assert again._mint == drawn._mint and again._data is not None
    assert thawed == again == drawn and again.checksum() == drawn.checksum()


@pytest.mark.parametrize("how", sorted(_every_constructor()))
def test_bytes_payload_pickle_roundtrip(how):
    """Snapshots and pool workers pickle payloads: content, checksum and
    the zero flag survive, whatever was cached before the dump."""
    payload = _every_constructor()[how]
    cold = pickle.loads(pickle.dumps(payload))
    crc, zero = payload.checksum(), payload.is_zero()
    warm = pickle.loads(pickle.dumps(payload))
    for copy in (cold, warm):
        assert copy == payload and len(copy) == len(payload)
        assert copy.data.dtype == np.uint8
        assert copy.checksum() == crc and copy.is_zero() is zero
        assert copy.xor(payload).is_zero()
    assert warm._crc == crc and warm._zero is zero  # the caches travel


# ----------------------------------------------------------------------
# TokenPayload.
# ----------------------------------------------------------------------
def test_token_xor_is_symmetric_difference():
    a = TokenPayload.of("blk", 1)
    b = TokenPayload.of("blk", 2)
    delta = a.xor(b)
    assert delta.tokens == {("blk", 1), ("blk", 2)}
    assert delta.xor(a) == b
    assert a.xor(a).is_zero()


def test_token_zero():
    assert TokenPayload.zeros().is_zero()
    assert TokenPayload.of("x", 1).xor(TokenPayload.zeros()) == TokenPayload.of("x", 1)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.text(max_size=3), st.integers(0, 5)), max_size=6),
    st.sets(st.tuples(st.text(max_size=3), st.integers(0, 5)), max_size=6),
)
def test_token_group_properties(sa, sb):
    a, b = TokenPayload(frozenset(sa)), TokenPayload(frozenset(sb))
    assert a.xor(b) == b.xor(a)
    assert a.xor(b).xor(b) == a
    assert a.xor(a).is_zero()


# ----------------------------------------------------------------------
# ContentFactory.
# ----------------------------------------------------------------------
def test_factory_is_deterministic():
    factory = ContentFactory(mode="bytes", seed=7)
    again = ContentFactory(mode="bytes", seed=7)
    assert factory.make("blk", 1, 64) == again.make("blk", 1, 64)
    assert factory.make("blk", 1, 64) != factory.make("blk", 2, 64)
    assert factory.make("blk", 1, 64) != factory.make("other", 1, 64)


#: The parent's ``integers(0, 256, dtype=uint8)`` stream, by CRC32 per
#: length.  A numpy upgrade that changed PCG64's raw output, or a mint
#: that reordered bytes, would otherwise silently change every block.
GOLDEN_CONTENT = {
    0: 0x00000000,
    1: 0x4C667A2E,
    7: 0x5330ADB7,
    8: 0x9B38986D,
    13: 0x46F0E84F,
    65536: 0x0428A64A,
    262144: 0xF7B45113,
}


@pytest.mark.parametrize("length", sorted(GOLDEN_CONTENT))
def test_deferred_mint_draws_the_eager_bytes(length):
    """A mint holds its spec until the first ``data`` read, and then has
    exactly the bytes an eager draw of the same stream makes."""
    payload = ContentFactory(seed=7).make("blk_0001", 3, length)
    seed = _stable_seed(7, "blk_0001", 3)
    assert payload._data is None and payload._mint == (seed, length)
    words = np.random.PCG64(seed).random_raw(-(-length // 8)).astype("<u8")
    eager = words.view(np.uint8)[:length]
    assert np.array_equal(payload.data, eager)
    assert payload._data is not None and payload._mint == (seed, length)
    assert payload.data is payload.data  # drawn once
    assert payload.checksum() == GOLDEN_CONTENT[length]


@pytest.mark.parametrize("length", [8, 13, 65536])
def test_len_and_is_zero_leave_a_mint_unmade(length):
    """``len()`` answers from the spec and ``is_zero()`` draws one word:
    a nonzero first word proves the payload nonzero."""
    payload = ContentFactory(seed=7).make("blk_0001", 3, length)
    assert len(payload) == length and not payload.is_zero()
    assert payload._data is None and payload._zero is False


def test_is_zero_of_a_mint_settles_on_the_bytes_when_one_word_cannot():
    """Shorter than a word, the first word's other bytes are not content:
    the payload is drawn and scanned."""
    payload = ContentFactory(seed=7).make("blk_0001", 3, 7)
    assert not payload.is_zero() and payload._data is not None


def test_factory_golden_content():
    factory = ContentFactory(seed=7)
    whole = factory.make("blk_0001", 3, 262144)
    assert whole.data[:8].tobytes() == bytes.fromhex("070de0cbdc72e451")
    for length, crc in GOLDEN_CONTENT.items():
        payload = factory.make("blk_0001", 3, length)
        assert len(payload) == length and payload.data.dtype == np.uint8
        assert payload.checksum() == crc, f"length {length}"
        # Prefix stability: the length only truncates the stream.
        assert np.array_equal(payload.data, whole.data[:length])
    # The byte-at-a-time draw the word-width mint replaced stays the reference.
    reference = np.random.default_rng(_stable_seed(7, "blk_0001", 3)).integers(
        0, 256, size=65536 + 13, dtype=np.uint8
    )
    assert np.array_equal(factory.make("blk_0001", 3, 65536 + 13).data, reference)


@pytest.mark.parametrize("length", [1, 7, 8, 13, 65536])
def test_minted_payload_is_frozen_to_the_root_and_slices_are_views(length):
    """Freezing only the outermost byte view would leave the word buffer
    writable: ``_is_safely_immutable`` would then make every payload built
    over a slice of a minted payload a silent copy."""
    payload = ContentFactory(seed=7).make("blk_0001", 3, length)
    arr = payload.data
    while arr is not None:  # the whole base chain, down to the owner
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        arr = arr.base
    assert _is_safely_immutable(payload.data)
    piece = BytesPayload(payload.data[length // 3:length])
    assert np.shares_memory(piece.data, payload.data)
    assert piece == BytesPayload(payload.data[length // 3:].tobytes())
    assert BytesPayload(piece.data[0:len(piece)]).data.ctypes.data == piece.data.ctypes.data


def test_factory_zero_is_one_shared_immutable_payload_per_length():
    factory = ContentFactory()
    assert factory.zero(64) is factory.zero(64)
    assert factory.zero(64) is not factory.zero(32)
    assert len(factory.zero(32)) == 32 and factory.zero(32).is_zero()
    assert not factory.zero(64).data.flags.writeable
    assert factory.zero(64) == BytesPayload.zeros(64)


def test_factory_token_mode():
    factory = ContentFactory(mode="tokens")
    assert factory.symbolic
    payload = factory.make("blk", 3, 10**12)  # size is free symbolically
    assert payload == TokenPayload.of("blk", 3)
    assert factory.zero(123).is_zero()


def test_factory_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ContentFactory(mode="holographic")


# ----------------------------------------------------------------------
# Copy-free construction and the in-place XOR kernels.
# ----------------------------------------------------------------------
def test_bytes_construction_from_bytes_is_zero_copy():
    raw = b"zero copy please"
    payload = BytesPayload(raw)
    # The array must be backed by the original bytes object, not a copy.
    base = payload.data.base
    while isinstance(base, np.ndarray):
        base = base.base
    assert base is raw
    assert not payload.data.flags.writeable


def test_bytes_construction_copies_writable_arrays():
    arr = np.frombuffer(b"abcd", dtype=np.uint8).copy()  # writable
    payload = BytesPayload(arr)
    arr[0] = 99  # mutating the source must not reach the payload
    assert payload == BytesPayload(b"abcd")


def test_bytes_construction_copies_readonly_view_of_writable_base():
    base = np.frombuffer(b"abcd", dtype=np.uint8).copy()
    view = base[:]
    view.setflags(write=False)
    payload = BytesPayload(view)  # base is still writable: must copy
    base[0] = 99
    assert payload == BytesPayload(b"abcd")


def test_adopt_does_not_copy_and_freezes():
    arr = np.arange(8, dtype=np.uint8)
    payload = BytesPayload.adopt(arr)
    assert payload.data is arr  # same buffer, ownership transferred
    assert not arr.flags.writeable


def test_slice_is_zero_copy_view():
    payload = BytesPayload(b"0123456789")
    piece = BytesPayload(payload.data[2:5])
    assert piece == BytesPayload(b"234")
    base = piece.data.base
    while isinstance(base, np.ndarray) and base is not payload.data:
        base = base.base
    assert base is payload.data or base is payload.data.base


def test_xor_into_matches_xor():
    rng = np.random.default_rng(11)
    a = BytesPayload(rng.integers(0, 256, size=64, dtype=np.uint8))
    b = BytesPayload(rng.integers(0, 256, size=64, dtype=np.uint8))
    buf = a.mutable_copy()
    b.xor_into(buf)
    assert BytesPayload.adopt(buf) == a.xor(b)


def test_xor_into_length_mismatch_rejected():
    a = BytesPayload(b"abc")
    with pytest.raises(ValueError):
        a.xor_into(np.zeros(5, dtype=np.uint8))


def test_checksum_is_cached_and_stable():
    payload = BytesPayload(b"cache me")
    first = payload.checksum()
    assert payload.checksum() == first
    import zlib

    assert first == zlib.crc32(b"cache me")


def test_xor_accumulator_bytes_plane():
    from repro.storage.payload import XorAccumulator

    rng = np.random.default_rng(12)
    payloads = [
        BytesPayload(rng.integers(0, 256, size=32, dtype=np.uint8)) for _ in range(5)
    ]
    accum = XorAccumulator(payloads[0])
    for p in payloads[1:]:
        accum.add(p)
    expected = payloads[0]
    for p in payloads[1:]:
        expected = expected.xor(p)
    assert accum.result() == expected
    # The initial payload must not have been mutated.
    assert payloads[0] == BytesPayload(payloads[0].data)


def test_xor_accumulator_copies_in_at_the_second_real_operand():
    """Known zeros fold as :meth:`BytesPayload.xor` does: the other
    operand itself, no buffer; a second real operand copies one in."""
    from repro.storage.payload import XorAccumulator

    factory = ContentFactory(mode="bytes")
    zero, a, b = factory.zero(64), factory.make("a", 1, 64), factory.make("b", 1, 64)
    accum = XorAccumulator(zero)
    accum.add(a)
    accum.add(zero)
    assert accum.result() is a
    accum = XorAccumulator(zero)
    for payload in (a, zero, b):
        accum.add(payload)
    folded = accum.result()
    assert folded == a.xor(b)
    assert not np.shares_memory(folded.data, a.data)
    assert a == factory.make("a", 1, 64)


def test_xor_accumulator_token_plane():
    from repro.storage.payload import XorAccumulator

    accum = XorAccumulator(TokenPayload.of("blk", 1))
    accum.add(TokenPayload.of("blk", 2))
    accum.add(TokenPayload.of("blk", 1))
    assert accum.result() == TokenPayload.of("blk", 2)


def test_xor_accumulator_rejects_cross_plane():
    from repro.storage.payload import XorAccumulator

    accum = XorAccumulator(BytesPayload(b"ab"))
    with pytest.raises(TypeError):
        accum.add(TokenPayload.of("x", 1))
