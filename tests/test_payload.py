"""Unit and property tests for payloads: mint terms plus a dense residue.

The key property: (Payload, xor) is an abelian group where every element
is its own inverse, whether its content is held as mint terms, as a
residue or as both, so a parity identity that cancels by set algebra
holds bitwise.
"""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.gf256 import GF256
from repro.storage import payload as payload_module
from repro.storage.payload import ContentFactory, Payload, _stable_seed


@pytest.fixture
def draws(monkeypatch):
    """Counts every PCG64 stream drawn."""
    count = [0]
    real = payload_module._draw

    def draw(seed, length):
        count[0] += 1
        return real(seed, length)

    monkeypatch.setattr(payload_module, "_draw", draw)
    return count


def _random(rng, length):
    return Payload.adopt(rng.integers(0, 256, size=length, dtype=np.uint8))


# ----------------------------------------------------------------------
# Residues: literal bytes.
# ----------------------------------------------------------------------
def test_bytes_xor_roundtrip():
    a = Payload(b"hello world!")
    b = Payload(b"HELLO WORLD?")
    assert a.xor(b).xor(b) == a
    assert (a ^ b) == a.xor(b)


def test_bytes_zero_identity():
    a = Payload(b"data")
    zero = Payload.zeros(4)
    assert a.xor(zero) == a
    assert zero.is_zero()
    assert not a.is_zero()


def test_bytes_immutability():
    payload = Payload(b"abcd")
    with pytest.raises((ValueError, RuntimeError)):
        payload.data[0] = 99


def test_bytes_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Payload(b"ab").xor(Payload(b"abc"))


def test_bytes_checksum_changes_with_content():
    a = Payload(b"aaaa")
    b = Payload(b"aaab")
    assert a.checksum() != b.checksum()
    assert len(a) == 4


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(0, 2**31))
def test_bytes_xor_group_properties(data, seed):
    rng = np.random.default_rng(seed)
    factory = ContentFactory(seed=seed)
    a = Payload(data)
    b = factory.make("b", 1, len(data))
    c = _random(rng, len(data)) ^ factory.make("c", 2, len(data))
    assert a.xor(b) == b.xor(a)  # commutative
    assert a.xor(b).xor(c) == a.xor(b.xor(c))  # associative
    assert a.xor(a).is_zero() and b.xor(b).is_zero() and c.xor(c).is_zero()
    assert np.array_equal((a ^ b ^ c).data, a.data ^ b.data ^ c.data)
    # Zero is the identity on either side, whether the zero is known by
    # construction or a residue of zero bytes.
    made = Payload.zeros(len(data))
    found = Payload(bytes(len(data)))
    for zero in (made, found):
        assert a.xor(zero) == a and zero.xor(a) == a
        assert zero.xor(zero).is_zero() and zero.is_zero()
    assert a.xor(made) is a and made.xor(a) is a  # nothing allocated
    for zero in (made, found):  # the checks come before the shortcut
        with pytest.raises(ValueError):
            zero.xor(Payload(data + b"x"))
        with pytest.raises(ValueError):
            Payload(data + b"x").xor(zero)
        with pytest.raises(TypeError):
            zero.xor(data)


# ----------------------------------------------------------------------
# Mint terms.
# ----------------------------------------------------------------------
def test_term_xor_is_symmetric_difference(draws):
    factory = ContentFactory(seed=7)
    a, b = factory.make("blk", 1, 64), factory.make("blk", 2, 64)
    delta = a.xor(b)
    assert delta.terms == {(7, "blk", 1, 64), (7, "blk", 2, 64)}
    assert delta.xor(a) == b and delta.xor(a).terms == b.terms
    assert a.xor(a).is_zero() and a.xor(a).terms == frozenset()
    assert draws[0] == 0


def test_zero_is_the_empty_term_set():
    zero = ContentFactory().zero(1 << 40)  # no buffer behind it
    assert zero.is_zero() and zero.terms == frozenset() and zero.residue is None
    a = ContentFactory().make("x", 1, 1 << 40)
    assert a.xor(zero) is a and zero.xor(a) is a


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.tuples(st.sampled_from("abc"), st.integers(0, 3)), max_size=6),
    st.sets(st.tuples(st.sampled_from("abc"), st.integers(0, 3)), max_size=6),
)
def test_term_group_properties(sa, sb):
    factory = ContentFactory(seed=3)

    def fold(specs):
        folded = factory.zero(24)
        for name, version in sorted(specs):
            folded = folded ^ factory.make(name, version, 24)
        return folded

    a, b = fold(sa), fold(sb)
    assert (a ^ b).terms == fold(sa ^ sb).terms
    assert a.xor(b) == b.xor(a) and a.xor(b).xor(b) == a
    assert a.xor(a).is_zero()
    assert np.array_equal((a ^ b).data, a.data ^ b.data)


def test_coefficients_add_and_scale_by_terms(draws):
    """A term's coefficient lives in GF(256): scaling multiplies it,
    adding adds it, and a term whose coefficient reaches 0 drops out;
    coefficient 1 is a plain term."""
    factory = ContentFactory(seed=7)
    a = factory.make("a", 1, 64)
    term = (7, "a", 1, 64)
    two_a = a.scaled(2)
    assert two_a.terms == frozenset() and two_a.weighted == {term: 2}
    assert (two_a ^ a).weighted == {term: 3}
    assert (two_a ^ a.scaled(3)) == a and (two_a ^ a.scaled(3)).weighted == {}
    assert (two_a ^ two_a).is_zero() and a.scaled(0).is_zero() and a.scaled(1) is a
    assert two_a.scaled(GF256.inv(2)).terms == a.terms
    assert draws[0] == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 255), st.sampled_from("abc"), st.integers(0, 2)),
        max_size=6,
    ),
    st.integers(0, 255),
    st.integers(0, 24),
    st.integers(0, 24),
)
def test_weighted_combinations_draw_their_bytes(specs, scale, lo, hi):
    """A combination of mints draws the sum of each stream times its
    coefficient; scaling, splicing and resizing it, windows carrying
    their coefficients, draw what the same operations on bytes make."""
    factory = ContentFactory(seed=3)
    payload, expected = factory.zero(24), np.zeros(24, np.uint8)
    for coef, name, version in specs:
        mint = factory.make(name, version, 24)
        payload = payload ^ mint.scaled(coef)
        expected ^= GF256.mul_bytes(coef, mint.data)
    assert np.array_equal(payload.data, expected)
    payload, expected = payload.scaled(scale), GF256.mul_bytes(scale, expected)
    assert np.array_equal(payload.data, expected)
    lo, hi = min(lo, hi), max(lo, hi)
    patch = (payload ^ factory.make("p", 1, 24)).scaled(5).resized(hi - lo)
    spliced = payload.splice(lo, patch)
    expected = expected.copy()
    expected[lo:hi] = patch.data
    assert np.array_equal(spliced.data, expected)
    assert np.array_equal(spliced.resized(30).data, np.concatenate([expected, np.zeros(6, np.uint8)]))
    assert np.array_equal(spliced.resized(10).data, expected[:10])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40), st.booleans()),
        min_size=1,
        max_size=5,
    )
)
def test_splice_writes_the_patch_bytes(patches):
    """Splices by terms, nested and overlapping, draw exactly what
    writing the patch bytes over a copy does; a window that meets its
    own spelling cancels."""
    factory = ContentFactory(seed=5)
    payload = factory.make("blk", 0, 40)
    expected = payload.data.copy()
    for version, (lo, hi, dense) in enumerate(patches, start=1):
        lo, hi = min(lo, hi), max(lo, hi)
        patch = factory.make("blk:u", version, hi - lo)
        if dense:
            patch = Payload.adopt(patch.data.copy())
        payload = payload.splice(lo, patch)
        expected[lo:hi] = patch.data
        assert np.array_equal(payload.data, expected)
    whole = factory.make("new", 1, 40)
    assert factory.make("old", 1, 40).splice(0, whole).terms == whole.terms
    with pytest.raises(ValueError):
        payload.splice(30, factory.make("x", 1, 11))


def test_splice_and_resize_draw_nothing(draws):
    factory = ContentFactory(seed=5)
    block = factory.make("blk", 1, 48)
    patched = block.splice(8, factory.make("blk:u2", 2, 16))
    in_slot = patched.resized(64)
    assert len(in_slot) == 64 and in_slot.resized(48) == patched
    assert block.resized(64).resized(48).terms == block.terms
    assert not patched.is_zero() and draws[0] == 0
    assert np.array_equal(in_slot.data[:48], patched.data)
    assert not in_slot.data[48:].any()
    assert np.array_equal(Payload(b"abc").resized(5).data, np.frombuffer(b"abc\0\0", np.uint8))
    assert Payload(b"abcde").resized(2) == Payload(b"ab")


def test_verifier_reads_leave_a_mint_unmade(draws):
    """Nothing a reader does is cached but the CRC: ``==`` answers equal
    term sets without reading and otherwise draws only the terms the
    two do not share; ``data`` draws afresh."""
    factory = ContentFactory(seed=7)
    a, b = factory.make("blk", 1, 64), factory.make("blk", 1, 64)
    assert a == b and draws[0] == 0
    other = factory.make("blk", 2, 64)
    assert (a ^ other) != (b ^ factory.make("blk", 3, 64)) and draws[0] == 2
    raw = b.data.tobytes()
    assert draws[0] == 3
    flipped = bytearray(raw)
    flipped[63] ^= 1
    assert a == Payload(raw) and a != Payload(bytes(flipped))
    assert a != other
    assert a.checksum() == zlib.crc32(raw) and a._crc is not None
    drawn = draws[0]
    assert a.checksum() == b.checksum() and draws[0] == drawn + 1  # b's own CRC
    assert a.checksum() == a.checksum() and draws[0] == drawn + 1


def test_mint_pickles_as_its_spec_until_drawn():
    """A mint travels as its term, drawn or not; a residue as bytes."""
    factory = ContentFactory(seed=7)
    mint = factory.make("blk_0001", 3, 65536)
    mint.data
    blob = pickle.dumps(mint)
    assert len(blob) < 1024
    thawed = pickle.loads(blob)
    assert thawed.terms == mint.terms and thawed.residue is None
    dense = Payload.adopt(mint.data.copy())
    again = pickle.loads(pickle.dumps(dense))
    assert thawed == again == mint and again.checksum() == mint.checksum()


def _every_constructor():
    raw = b"pickle me, all 23 bytes"
    factory = ContentFactory(seed=7)
    minted = factory.make("blk_0001", 3, 13)
    return {
        "bytes": Payload(raw),
        "adopt": Payload.adopt(np.frombuffer(raw, dtype=np.uint8).copy()),
        "zeros": Payload.zeros(9),
        "factory-zero": factory.zero(9),
        "minted": minted,
        "minted-empty": factory.make("blk_0001", 3, 0),
        "slice": Payload.adopt(minted.data[3:11]),
        "splice": minted.splice(2, Payload(b"XYZ")),
        "resized": minted.resized(20),
        "xor": minted.xor(factory.make("blk_0002", 1, 13)),
        "xor-zero": minted.xor(factory.zero(13)),
    }


@pytest.mark.parametrize("how", sorted(_every_constructor()))
def test_bytes_payload_pickle_roundtrip(how):
    """Snapshots and pool workers pickle payloads: content, checksum and
    the zero answer survive, whatever was cached before the dump."""
    payload = _every_constructor()[how]
    cold = pickle.loads(pickle.dumps(payload))
    crc, zero = payload.checksum(), payload.is_zero()
    warm = pickle.loads(pickle.dumps(payload))
    for copy in (cold, warm):
        assert copy == payload and len(copy) == len(payload)
        assert copy.data.dtype == np.uint8
        assert copy.checksum() == crc and copy.is_zero() is zero
        assert copy.xor(payload).is_zero()
    assert warm._crc == crc  # the cache travels


# ----------------------------------------------------------------------
# ContentFactory.
# ----------------------------------------------------------------------
def test_factory_is_deterministic():
    factory = ContentFactory(seed=7)
    again = ContentFactory(seed=7)
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
def test_deferred_mint_draws_the_eager_bytes(length, draws):
    """A mint is its term until a ``data`` read, which draws exactly the
    bytes an eager draw of the same stream makes."""
    payload = ContentFactory(seed=7).make("blk_0001", 3, length)
    assert payload.terms == {(7, "blk_0001", 3, length)} and draws[0] == 0
    seed = _stable_seed(7, "blk_0001", 3)
    words = np.random.PCG64(seed).random_raw(-(-length // 8)).astype("<u8")
    eager = words.view(np.uint8)[:length]
    assert np.array_equal(payload.data, eager) and draws[0] == 1
    assert payload.checksum() == GOLDEN_CONTENT[length]


@pytest.mark.parametrize("length", [8, 13, 65536])
def test_len_and_is_zero_leave_a_mint_unmade(length, draws):
    """``len()`` and ``is_zero()`` answer from the term."""
    payload = ContentFactory(seed=7).make("blk_0001", 3, length)
    assert len(payload) == length and not payload.is_zero()
    assert draws[0] == 0


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
    """The drawn word buffer is frozen too, so no reference reaches a
    writable base, and a payload adopted over a slice stays a view."""
    payload = ContentFactory(seed=7).make("blk_0001", 3, length)
    arr = payload.data
    while arr is not None:  # the whole base chain, down to the owner
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        arr = arr.base
    drawn = payload.data
    piece = Payload.adopt(drawn[length // 3:length])
    assert np.shares_memory(piece.data, drawn)
    assert piece == Payload(drawn[length // 3:].tobytes())
    assert Payload.adopt(piece.data[0:len(piece)]).data.ctypes.data == piece.data.ctypes.data


def test_factory_zero_is_one_shared_immutable_payload_per_length():
    factory = ContentFactory()
    assert factory.zero(64) is factory.zero(64)
    assert factory.zero(64) is not factory.zero(32)
    assert len(factory.zero(32)) == 32 and factory.zero(32).is_zero()
    assert not factory.zero(64).data.flags.writeable
    assert factory.zero(64) == Payload.zeros(64)


def test_factory_rejects_unknown_mode():
    """There is one payload representation: the factory takes no mode."""
    with pytest.raises(TypeError):
        ContentFactory(mode="bytes")


def test_a_mint_of_any_size_costs_nothing_until_read(draws):
    factory = ContentFactory()
    payload = factory.make("blk", 3, 10**12)
    assert len(payload) == 10**12 and not payload.is_zero()
    assert len(pickle.dumps(payload)) < 256 and draws[0] == 0


# ----------------------------------------------------------------------
# Copy-free construction and the in-place XOR kernel.
# ----------------------------------------------------------------------
def test_bytes_construction_from_bytes_is_zero_copy():
    raw = b"zero copy please"
    payload = Payload(raw)
    # The array must be backed by the original bytes object, not a copy.
    base = payload.data.base
    while isinstance(base, np.ndarray):
        base = base.base
    assert base is raw
    assert not payload.data.flags.writeable
    with pytest.raises(TypeError):
        Payload(np.frombuffer(raw, dtype=np.uint8))  # arrays are adopted


def test_adopt_does_not_copy_and_freezes():
    arr = np.arange(8, dtype=np.uint8)
    payload = Payload.adopt(arr)
    assert payload.data is arr  # same buffer, ownership transferred
    assert not arr.flags.writeable


def test_slice_is_zero_copy_view():
    payload = Payload(b"0123456789")
    piece = Payload.adopt(payload.data[2:5])
    assert piece == Payload(b"234")
    base = piece.data.base
    while isinstance(base, np.ndarray) and base is not payload.data:
        base = base.base
    assert base is payload.data or base is payload.data.base


def test_xor_into_matches_xor():
    rng = np.random.default_rng(11)
    a, b = _random(rng, 64), _random(rng, 64)
    minted = ContentFactory().make("m", 1, 64)
    buf = a.mutable_copy()
    b.xor_into(buf)
    minted.xor_into(buf)
    assert Payload.adopt(buf) == a.xor(b).xor(minted)


def test_xor_into_length_mismatch_rejected():
    a = Payload(b"abc")
    with pytest.raises(ValueError):
        a.xor_into(np.zeros(5, dtype=np.uint8))


def test_checksum_is_cached_and_stable():
    payload = Payload(b"cache me")
    first = payload.checksum()
    assert payload.checksum() == first
    assert first == zlib.crc32(b"cache me")
