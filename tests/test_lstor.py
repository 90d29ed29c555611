"""Unit and property tests for Lstors and stacked Lstors (paper §3.2)."""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.lstor import Lstor, LstorStack, filler
from repro.errors import LstorFailedError
from repro.sim.engine import Simulator
from repro.storage.payload import BytesPayload, ContentFactory, TokenPayload
from tests.oracles import EagerParity

BLOCK = 1024


def make_lstor(mode="bytes"):
    sim = Simulator()
    factory = ContentFactory(mode=mode)
    return sim, factory, Lstor(sim, factory, name="L0", block_size=BLOCK)


def make_stack(parity_count=2, data_shards=5):
    sim = Simulator()
    factory = ContentFactory(mode="bytes")
    return (
        sim,
        factory,
        LstorStack(
            sim,
            factory,
            name="S",
            block_size=BLOCK,
            data_shards=data_shards,
            parity_count=parity_count,
        ),
    )


# ----------------------------------------------------------------------
# Single Lstor.
# ----------------------------------------------------------------------
def test_parity_starts_zero():
    _sim, _factory, lstor = make_lstor()
    assert lstor.parity_block(0).is_zero()


def test_absorb_updates_parity():
    _sim, factory, lstor = make_lstor()
    payload = factory.make("a", 1, BLOCK)
    lstor.absorb(0, factory.zero(BLOCK).xor(payload))
    assert lstor.parity_block(0) == payload
    # A second superchunk's block at the same slot XORs in.
    other = factory.make("b", 1, BLOCK)
    lstor.absorb(0, factory.zero(BLOCK).xor(other))
    assert lstor.parity_block(0) == payload.xor(other)


def test_absorb_tag_dedup():
    _sim, factory, lstor = make_lstor()
    delta = factory.make("a", 1, BLOCK)
    lstor.absorb(0, delta, tag="t1")
    lstor.absorb(0, delta, tag="t1")  # replay: must be a no-op
    assert lstor.parity_block(0) == delta
    lstor.absorb(0, delta, tag="t2")  # different tag applies
    assert lstor.parity_block(0).is_zero()


def test_failed_lstor_raises():
    _sim, factory, lstor = make_lstor()
    lstor.fail()
    with pytest.raises(LstorFailedError):
        lstor.parity_block(0)
    with pytest.raises(LstorFailedError):
        lstor.absorb(0, factory.zero(BLOCK))


def test_journal_write_time_scales():
    _sim, _factory, lstor = make_lstor()
    assert lstor.journal_write_time(2 * BLOCK) == 2 * lstor.journal_write_time(BLOCK)


def test_token_mode_lstor():
    _sim, factory, lstor = make_lstor(mode="tokens")
    a = factory.make("a", 1, BLOCK)
    lstor.absorb(3, factory.zero(BLOCK).xor(a))
    assert lstor.parity_block(3) == a


def _assert_copy_on_write(lstors, absorb):
    """Each Lstor's parity snapshot shares its slot accumulator; the
    ``absorb()`` after it moves the parity and leaves the snapshot's
    bytes and CRC as they were."""
    snapshots = [lstor.parity_block(0) for lstor in lstors]
    for lstor, snap in zip(lstors, snapshots):
        assert np.shares_memory(snap.data, lstor._parity_accum[0])
    before = [(bytes(snap.data), snap.checksum()) for snap in snapshots]
    absorb()
    for lstor, snap, (content, crc) in zip(lstors, snapshots, before):
        assert bytes(snap.data) == content and zlib.crc32(snap.data) == crc
        assert lstor.parity_block(0) != snap
        assert not np.shares_memory(snap.data, lstor._parity_accum[0])


def test_parity_snapshot_is_copy_on_write():
    _sim, factory, lstor = make_lstor()
    lstor.absorb(0, factory.make("a", 1, BLOCK))
    _assert_copy_on_write([lstor], lambda: lstor.absorb(0, factory.make("b", 1, BLOCK)))
    assert lstor.parity_block(0) == factory.make("a", 1, BLOCK).xor(
        factory.make("b", 1, BLOCK)
    )


def test_parity_snapshot_is_copy_on_write_after_pickle():
    """Unpickled arrays are writable again, and the cached snapshot and
    the accumulator still share one buffer: the cache entry, not the
    flag, must decide the copy."""
    _sim, factory, lstor = make_lstor()
    lstor.absorb(0, factory.make("a", 1, BLOCK))
    lstor.parity_block(0)
    lstor = pickle.loads(pickle.dumps(lstor))
    assert lstor._parity_accum[0].flags.writeable
    _assert_copy_on_write([lstor], lambda: lstor.absorb(0, factory.make("b", 1, BLOCK)))


def test_stacked_parity_snapshots_are_copy_on_write():
    _sim, factory, stack = make_stack(parity_count=2, data_shards=3)
    zero = factory.zero(BLOCK)
    stack.absorb_update(0, 0, zero, factory.make("a", 1, BLOCK))
    _assert_copy_on_write(
        stack.lstors,
        lambda: stack.absorb_update(1, 0, zero, factory.make("b", 1, BLOCK)),
    )


@pytest.mark.parametrize("seed", range(12))
def test_pending_parity_matches_eager_folding(seed):
    """Random writes, deletes, delta absorbs, parity reads, pickles,
    failures and resets on one Lstor agree with :class:`EagerParity`
    after every step (read on a pickled copy between the read steps, so
    that pending terms live on).  ``old`` is the shard's last ``new``
    itself (the pending term cancels), equal bytes in another object, a
    known zero or unrelated content; every snapshot keeps its bytes."""
    import random

    rng = random.Random(seed)
    block, shards, slots = 64, 3, 2
    sim = Simulator()
    factory = ContentFactory(mode="bytes", seed=seed)
    stack = LstorStack(sim, factory, "S", block, data_shards=shards, parity_count=1)
    oracle = EagerParity(block)
    if seed % 2:  # preallocated: the fillers fold in at a slot's first read
        stack.prefill([(0, 100), (2, 102)])
        for _shard, sc_id in ((0, 100), (2, 102)):
            for slot in range(slots):
                oracle.absorb(slot, filler(factory, sc_id, slot, block))
    zero = factory.zero(block)
    last = {}  # (shard, slot) -> the object last absorbed as ``new``
    snapshots = []
    for step in range(150):
        op = rng.choices(
            ["write", "delete", "delta", "read", "pickle", "fail", "reset"],
            weights=[10, 2, 1, 4, 1, 1, 1],
        )[0]
        slot, shard = rng.randrange(slots), rng.randrange(shards)
        if op in ("write", "delete"):
            name, version = f"v{rng.randrange(4)}", rng.randrange(3)
            held = last.get((shard, slot))
            old = rng.choice(
                [held, held, factory.make(name, version, block), zero]
                if held is not None
                else [factory.make(name, version, block), zero]
            )
            if held is not None and old is not held and rng.random() < 0.5:
                # Equal bytes in another object, as a re-minted filler.
                old = BytesPayload(held.data.tobytes())
            new = zero if op == "delete" else factory.make(name, version + 1, block)
            stack.absorb_update(shard, slot, old, new)
            oracle.absorb(slot, old, new)
            last[(shard, slot)] = new
        elif op == "delta" and not stack.primary.failed:
            delta = factory.make(f"d{step}", 0, block)
            stack.primary.absorb(slot, delta)
            oracle.absorb(slot, delta)
        elif op == "pickle":
            stack = pickle.loads(pickle.dumps(stack))
        elif op == "fail":
            stack.primary.fail()
            oracle.fail()
        elif op == "reset":
            stack.reset()
            oracle.reset()
            last.clear()
        if stack.primary.failed:
            with pytest.raises(LstorFailedError):
                stack.parity_block(slot)
            continue
        # A read folds the pending terms; a copy's read leaves them be.
        reader = stack if op == "read" else pickle.loads(pickle.dumps(stack))
        for read in range(slots):
            parity = reader.parity_block(read)
            assert bytes(parity.data) == oracle.parity(read), (step, op)
            if reader is stack:
                snapshots.append((parity, bytes(parity.data)))
    for parity, content in snapshots:
        assert bytes(parity.data) == content


def test_pending_term_cancels_without_xor(monkeypatch):
    """A write whose ``old`` is the shard's pending ``new`` costs no
    XOR and draws no bytes; the parity read folds what is left."""
    _sim, factory, stack = make_stack(parity_count=1, data_shards=2)
    zero = factory.zero(BLOCK)
    versions = [factory.make("a", v, BLOCK) for v in range(4)]
    calls = []
    real_xor = np.bitwise_xor

    def xor(a, b, out=None):
        calls.append(out is not None)
        return real_xor(a, b, out=out)

    monkeypatch.setattr(np, "bitwise_xor", xor)
    old = zero
    for new in versions:
        stack.absorb_update(1, 0, old, new)
        old = new
    assert calls == [] and all(v._data is None for v in versions[:-1])
    assert stack.parity_block(0) == versions[-1] and calls == [True]


# ----------------------------------------------------------------------
# Stacked Lstors (Reed-Solomon rows).
# ----------------------------------------------------------------------
def test_stack_requires_at_least_one():
    sim = Simulator()
    factory = ContentFactory(mode="bytes")
    with pytest.raises(ValueError):
        LstorStack(sim, factory, "S", BLOCK, data_shards=4, parity_count=0)


def test_stack_rejects_symbolic_mode_for_rs():
    sim = Simulator()
    factory = ContentFactory(mode="tokens")
    with pytest.raises(ValueError):
        LstorStack(sim, factory, "S", BLOCK, data_shards=4, parity_count=2)


def test_stack_single_parity_allows_tokens():
    sim = Simulator()
    factory = ContentFactory(mode="tokens")
    stack = LstorStack(sim, factory, "S", BLOCK, data_shards=4, parity_count=1)
    payload = factory.make("a", 1, BLOCK)
    stack.absorb_update(0, 0, factory.zero(BLOCK), payload)
    rebuilt = stack.reconstruct_block(0, {}, missing_shards=[0])
    assert rebuilt[0] == payload


def test_stack_recovers_two_missing_superchunks():
    _sim, factory, stack = make_stack(parity_count=2, data_shards=5)
    contents = {}
    for shard in range(5):
        payload = factory.make(f"s{shard}", 1, BLOCK)
        stack.absorb_update(shard, 0, factory.zero(BLOCK), payload)
        contents[shard] = payload
    survivors = {s: p for s, p in contents.items() if s not in (1, 3)}
    rebuilt = stack.reconstruct_block(0, survivors, missing_shards=[1, 3])
    assert rebuilt[1] == contents[1]
    assert rebuilt[3] == contents[3]


def test_stack_survives_one_lstor_failure():
    _sim, factory, stack = make_stack(parity_count=2, data_shards=4)
    contents = {}
    for shard in range(4):
        payload = factory.make(f"s{shard}", 1, BLOCK)
        stack.absorb_update(shard, 0, factory.zero(BLOCK), payload)
        contents[shard] = payload
    stack.lstors[0].fail()
    survivors = {s: p for s, p in contents.items() if s != 2}
    rebuilt = stack.reconstruct_block(0, survivors, missing_shards=[2])
    assert rebuilt[2] == contents[2]


def test_stack_with_all_lstors_dead_raises():
    _sim, factory, stack = make_stack(parity_count=1, data_shards=3)
    stack.lstors[0].fail()
    with pytest.raises(LstorFailedError):
        stack.reconstruct_block(0, {}, missing_shards=[0])


def test_stack_handles_unwritten_shards_as_zero():
    """Superchunk slots never written count as zeros in the RS code."""
    _sim, factory, stack = make_stack(parity_count=2, data_shards=5)
    written = factory.make("only", 1, BLOCK)
    stack.absorb_update(2, 0, factory.zero(BLOCK), written)
    # Shards 0,1,3,4 were never written; recover shard 2 from parity alone.
    rebuilt = stack.reconstruct_block(0, {}, missing_shards=[2])
    assert rebuilt[2] == written


@settings(max_examples=15, deadline=None)
@given(
    parity_count=st.integers(min_value=1, max_value=3),
    updates=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_stack_recovers_after_random_updates(parity_count, updates, seed):
    """After arbitrary update sequences, any single superchunk (and up to
    ``parity_count`` of them) is reconstructible."""
    import random

    rng = random.Random(seed)
    data_shards = 5
    _sim, factory, stack = make_stack(parity_count=parity_count, data_shards=data_shards)
    current = {s: factory.zero(BLOCK) for s in range(data_shards)}
    for version in range(1, updates + 1):
        shard = rng.randrange(data_shards)
        new = factory.make(f"s{shard}", version, BLOCK)
        stack.absorb_update(shard, 0, current[shard], new)
        current[shard] = new
    missing = rng.sample(range(data_shards), k=min(parity_count, data_shards))
    survivors = {s: p for s, p in current.items() if s not in missing}
    rebuilt = stack.reconstruct_block(0, survivors, missing_shards=list(missing))
    for shard in missing:
        assert rebuilt[shard] == current[shard]
