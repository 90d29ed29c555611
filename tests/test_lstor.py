"""Unit and property tests for Lstors and stacked Lstors (paper §3.2)."""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.lstor import Lstor, LstorStack, filler
from repro.errors import LayoutError, LstorFailedError
from repro.sim.engine import Simulator
from repro.storage.payload import BytesPayload, ContentFactory, TokenPayload
from repro.tools.chaos import build_cluster
from tests.oracles import EagerParity, folding_covers, folding_verify_parity

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


def _flipped(payload):
    """An adopted copy of ``payload`` with its first byte flipped."""
    data = payload.data.copy()
    data[0] ^= 1
    return BytesPayload.adopt(data)


def _flip_accumulator(lstor, slot):
    """Flip one byte of ``slot``'s accumulator, copy on write."""
    accum = lstor._parity_accum[slot].copy()
    accum[0] ^= 1
    lstor._parity_accum[slot] = accum
    lstor._parity.pop(slot, None)


def _observed(stack, disk):
    """What a check must leave as it found it: the pending terms by
    identity, the accumulators' bytes, the snapshots, the folded slots
    and which mints are drawn."""
    lstor = stack.primary
    return (
        {slot: {s: id(t) for s, t in p.items()} for slot, p in lstor._pending.items()},
        {slot: bytes(a) for slot, a in lstor._parity_accum.items()},
        {slot: id(p) for slot, p in lstor._parity.items()},
        set(stack._folded),
        {key: p._data is None for key, p in disk.items()},
    )


@pytest.mark.parametrize("seed", range(12))
def test_parity_check_agrees_with_the_folding_oracle(seed):
    """Random writes, deletes, parity reads, pickles, corruptions and
    resets on one bytes-plane Lstor: after every step,
    :meth:`LstorStack.covers` gives every slot the verdict of
    :func:`folding_covers` (run on a pickled copy of the stack and its
    disk together, so identities survive) and changes nothing.  Writes
    cancel pending terms, re-mint equal specs on other shards, and
    odd seeds start preallocated.  A corruption is one of the three
    mutants: a flipped accumulator byte, a pending term swapped for
    another mint, a stored block replaced by a flipped adopted copy."""
    import random

    rng = random.Random(seed)
    block, shards, slots = 64, 3, 2
    factory = ContentFactory(mode="bytes", seed=seed)
    stack = LstorStack(Simulator(), factory, "S", block, data_shards=shards, parity_count=1)
    disk = {}  # (shard, slot) -> the stored content
    if seed % 2:
        stack.prefill([(0, 100), (2, 102)])
        for shard, sc_id in ((0, 100), (2, 102)):
            for slot in range(slots):
                disk[shard, slot] = filler(factory, sc_id, slot, block)
    zero = factory.zero(block)
    verdicts = []
    for step in range(120):
        op = rng.choices(
            ["write", "delete", "read", "pickle", "corrupt", "reset"],
            weights=[10, 2, 2, 1, 1, 1],
        )[0]
        slot, shard = rng.randrange(slots), rng.randrange(shards)
        held = disk.get((shard, slot), zero)
        if op in ("write", "delete"):
            old = held
            if held._mint is not None and rng.random() < 0.2:
                old = BytesPayload.minted(*held._mint)  # equal spec, another object
            new = zero if op == "delete" else factory.make(f"v{rng.randrange(3)}", 0, block)
            stack.absorb_update(shard, slot, old, new)
            disk[shard, slot] = new
        elif op == "read":
            stack.parity_block(slot)
        elif op == "pickle":
            stack, disk = pickle.loads(pickle.dumps((stack, disk)))
        elif op == "corrupt":
            lstor, mutant = stack.primary, rng.choice(["accum", "pending", "stored"])
            if mutant == "accum" and slot in lstor._parity_accum:
                _flip_accumulator(lstor, slot)
            elif mutant == "pending" and lstor._pending.get(slot):
                pending = lstor._pending[slot]
                pending[next(iter(pending))] = factory.make(f"x{step}", 0, block)
            elif not held._zero:
                disk[shard, slot] = _flipped(held)
        elif op == "reset":
            stack.reset()
            disk.clear()
        copy, copy_disk = pickle.loads(pickle.dumps((stack, disk)))
        before = _observed(stack, disk)
        for read in range(slots):
            payloads = [disk.get((s, read), zero) for s in range(shards)]
            copies = [copy_disk.get((s, read), copy.factory.zero(block)) for s in range(shards)]
            verdict = stack.covers(read, payloads)
            assert verdict == folding_covers(copy, read, copies), (step, op, read)
            verdicts.append(verdict)
        assert _observed(stack, disk) == before, (step, op)
    assert True in verdicts and False in verdicts


def _pending_block(dfs):
    """A parity-trusted DataNode, a slot, and the block stored there
    whose pending term at that slot is the stored object itself."""
    for datanode in dfs._parity_trusted():
        pending = datanode.lstors.primary._pending
        for (sc_id, slot), name in datanode._block_at.items():
            stored = datanode._contents[name]
            if pending.get(slot, {}).get(datanode.shard_index_of(sc_id)) is stored:
                return datanode, slot, name
    raise AssertionError("no pending term")


@pytest.mark.parametrize("mutant", ["accumulator byte", "pending term", "stored slot"])
def test_parity_checks_reject_each_mutant(mutant):
    """On a bytes cluster after writes and a rewrite, both the
    cancelling ``verify_parity`` and the folding oracle pass, and each
    reject one flipped accumulator byte, one pending term swapped for
    another mint, and one stored block replaced by an adopted copy with
    one flipped byte."""
    dfs = build_cluster(5)

    def body():
        yield from dfs.clients[0].write_file("/f", 4 * dfs.config.block_size)
        yield from dfs.clients[1].rewrite_file("/f")

    dfs.sim.run_process(body())
    dfs.verify_parity()
    folding_verify_parity(pickle.loads(pickle.dumps(dfs)))
    datanode, slot, name = _pending_block(dfs)
    lstor = datanode.lstors.primary
    if mutant == "accumulator byte":
        datanode.lstors.parity_block(slot)  # fold: the slot gets an accumulator
        dfs.verify_parity()
        _flip_accumulator(lstor, slot)
    elif mutant == "pending term":
        pending = lstor._pending[slot]
        for shard, term in pending.items():
            if term is datanode._contents[name]:
                pending[shard] = dfs.factory.make("another", 1, len(term))
    else:
        datanode._contents[name] = _flipped(datanode._contents[name])
    with pytest.raises(LayoutError, match=f"{datanode.name} slot {slot}"):
        dfs.verify_parity()
    with pytest.raises(LayoutError, match=f"{datanode.name} slot {slot}"):
        folding_verify_parity(dfs)


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
