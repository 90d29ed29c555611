"""Unit and property tests for Lstors, one or stacked (paper §3.2, §3.3)."""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.lstor import Lstor, filler
from repro.ec.reed_solomon import ReedSolomon
from repro.errors import CodingError, LayoutError, LstorFailedError
from repro.sim.engine import Simulator
from repro.storage import payload as payload_module
from repro.storage.payload import ContentFactory, Payload
from repro.tools.chaos import build_cluster
from tests.oracles import EagerParity, folding_covers, folding_verify_parity

BLOCK = 1024


def make_lstor():
    return make_stack(parity_count=1, data_shards=2)


def make_stack(parity_count=2, data_shards=5, block=BLOCK):
    sim = Simulator()
    factory = ContentFactory()
    return (
        sim,
        factory,
        Lstor(
            sim,
            factory,
            name="S",
            block_size=block,
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
    lstor.absorb_update(0, 0, factory.zero(BLOCK), payload)
    assert lstor.parity_block(0) == payload
    # A second superchunk's block at the same slot XORs in.
    other = factory.make("b", 1, BLOCK)
    lstor.absorb_update(1, 0, factory.zero(BLOCK), other)
    assert lstor.parity_block(0) == payload.xor(other)


def test_absorb_tag_dedup():
    _sim, factory, lstor = make_lstor()
    zero, new = factory.zero(BLOCK), factory.make("a", 1, BLOCK)
    lstor.absorb_update(0, 0, zero, new, tag="t1")
    lstor.absorb_update(0, 0, zero, new, tag="t1")  # replay: must be a no-op
    assert lstor.parity_block(0) == new
    lstor.absorb_update(0, 0, zero, new, tag="t2")  # different tag applies
    assert lstor.parity_block(0).is_zero()


def test_failed_lstor_raises():
    _sim, factory, lstor = make_lstor()
    lstor.primary.fail()
    with pytest.raises(LstorFailedError):
        lstor.parity_block(0)
    with pytest.raises(LstorFailedError):
        lstor.reconstruct_block(0, {}, [0])
    # A failed device absorbs nothing; a replaced one starts from zero.
    lstor.absorb_update(0, 0, factory.zero(BLOCK), factory.make("a", 1, BLOCK))
    lstor.reset()
    assert lstor.parity_block(0).is_zero()


def test_journal_write_time_scales():
    _sim, _factory, lstor = make_lstor()
    assert lstor.journal_write_time(2 * BLOCK) == 2 * lstor.journal_write_time(BLOCK)


def _assert_copy_on_write(lstor, absorb):
    """Each row's parity snapshot is the slot's payload itself, no copy;
    the ``absorb()`` after it replaces the slot's payload and leaves the
    snapshot's bytes and CRC as they were."""
    rows = range(lstor.parity_count)
    snapshots = [lstor.parity_block(0, row) for row in rows]
    for row, snap in zip(rows, snapshots):
        assert snap is lstor._parity[row][0]
    before = [(bytes(snap.data), snap.checksum()) for snap in snapshots]
    absorb()
    for row, snap, (content, crc) in zip(rows, snapshots, before):
        assert bytes(snap.data) == content and zlib.crc32(snap.data) == crc
        assert lstor.parity_block(0, row) != snap


def test_parity_snapshot_is_copy_on_write():
    _sim, factory, lstor = make_lstor()
    zero = factory.zero(BLOCK)
    lstor.absorb_update(0, 0, zero, factory.make("a", 1, BLOCK))
    _assert_copy_on_write(
        lstor, lambda: lstor.absorb_update(1, 0, zero, factory.make("b", 1, BLOCK))
    )
    assert lstor.parity_block(0) == factory.make("a", 1, BLOCK).xor(
        factory.make("b", 1, BLOCK)
    )


def test_parity_snapshot_is_copy_on_write_after_pickle():
    """Unpickled arrays are writable again: an absorb into a slot whose
    parity holds a residue still makes a new one."""
    _sim, factory, lstor = make_lstor()
    rng = np.random.default_rng(3)
    zero = factory.zero(BLOCK)

    def dense():
        return Payload.adopt(rng.integers(0, 256, BLOCK, dtype=np.uint8))

    lstor.absorb_update(0, 0, zero, dense())
    lstor = pickle.loads(pickle.dumps(lstor))
    assert lstor._parity[0][0].residue.flags.writeable
    _assert_copy_on_write(lstor, lambda: lstor.absorb_update(1, 0, zero, dense()))


def test_stacked_parity_snapshots_are_copy_on_write():
    _sim, factory, stack = make_stack(parity_count=2, data_shards=3)
    zero = factory.zero(BLOCK)
    stack.absorb_update(0, 0, zero, factory.make("a", 1, BLOCK))
    _assert_copy_on_write(
        stack, lambda: stack.absorb_update(1, 0, zero, factory.make("b", 1, BLOCK))
    )


@pytest.mark.parametrize("seed", range(12))
def test_pending_parity_matches_eager_folding(seed):
    """Random writes, deletes, delta absorbs, parity reads, pickles,
    failures and resets on one Lstor agree with :class:`EagerParity`
    after every step (read on a pickled copy between the read steps).
    ``old`` is the shard's last ``new`` itself (its term cancels), equal
    bytes as a residue, a known zero or unrelated content; every
    snapshot keeps its bytes."""
    import random

    rng = random.Random(seed)
    block, shards, slots = 64, 3, 2
    sim = Simulator()
    factory = ContentFactory(seed=seed)
    stack = Lstor(sim, factory, "S", block, data_shards=shards)
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
                old = Payload(held.data.tobytes())
            new = zero if op == "delete" else factory.make(name, version + 1, block)
            stack.absorb_update(shard, slot, old, new)
            oracle.absorb(slot, old, new)
            last[(shard, slot)] = new
        elif op == "delta" and not stack.primary.failed:
            delta = factory.make(f"d{step}", 0, block)
            stack.absorb_update(shard, slot, zero, delta)
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
        # A read folds a slot's fillers; a copy's read leaves them be.
        reader = stack if op == "read" else pickle.loads(pickle.dumps(stack))
        for read in range(slots):
            parity = reader.parity_block(read)
            assert bytes(parity.data) == oracle.parity(read), (step, op)
            if reader is stack:
                snapshots.append((parity, bytes(parity.data)))
    for parity, content in snapshots:
        assert bytes(parity.data) == content


def test_pending_term_cancels_without_xor(monkeypatch):
    """A write's ``old`` cancels the term its previous write absorbed as
    ``new``: the parity is the last version's term, reached, read and
    compared with no byte XORed or drawn."""
    _sim, factory, stack = make_stack(parity_count=1, data_shards=2)
    zero = factory.zero(BLOCK)
    versions = [factory.make("a", v, BLOCK) for v in range(4)]
    calls = []
    real_xor, real_draw = np.bitwise_xor, payload_module._draw

    def xor(a, b, out=None):
        calls.append("xor")
        return real_xor(a, b, out=out)

    def draw(seed, length):
        calls.append("draw")
        return real_draw(seed, length)

    monkeypatch.setattr(np, "bitwise_xor", xor)
    monkeypatch.setattr(payload_module, "_draw", draw)
    old = zero
    for new in versions:
        stack.absorb_update(1, 0, old, new)
        old = new
    assert stack.parity_block(0).terms == versions[-1].terms
    assert stack.parity_block(0) == versions[-1] and calls == []


def _flipped(payload):
    """An adopted copy of ``payload`` with its first byte flipped."""
    data = payload.data.copy()
    data[0] ^= 1
    return Payload.adopt(data)


def _flip_parity_byte(lstor, slot, row=0):
    """Flip one bit of ``slot``'s parity in ``row``: a one-byte residue
    joins it."""
    bit = np.zeros(lstor.block_size, dtype=np.uint8)
    bit[0] = 1
    lstor._parity[row][slot] = lstor.parity_block(slot, row) ^ Payload.adopt(bit)


def _swap_parity_term(lstor, slot, term, other, row=0):
    """Swap the whole-mint term ``term`` of ``slot``'s parity in ``row``
    for ``other``: take the term away at its coefficient, add ``other``."""
    parity = lstor._parity[row][slot]
    seed, name, version, length = term
    removed = ContentFactory(seed).make(name, version, length)
    lstor._parity[row][slot] = parity ^ removed.scaled(parity.coefficients()[term]) ^ other


def _observed(stack, disk):
    """What a check must leave as it found it: each slot's parity and
    each stored block by identity, and the folded slots."""
    return (
        [{slot: id(p) for slot, p in row.items()} for row in stack._parity],
        set(stack._folded),
        {key: id(p) for key, p in disk.items()},
    )


@pytest.mark.parametrize("seed", range(12))
def test_parity_check_agrees_with_the_folding_oracle(seed):
    """Random writes, deletes, parity reads, pickles, corruptions and
    resets on one Lstor (seeds 2, 3, 6, 7, 10, 11: a stack of two):
    after every step, :meth:`Lstor.covers` gives every slot the verdict
    of :func:`folding_covers` (run on a pickled copy of the stack and
    its disk together, so identities survive) and changes nothing.
    Writes cancel the terms their previous writes left, ``old`` is
    sometimes an equal payload in another object, and odd seeds start
    preallocated.  A corruption is one of the three mutants, in a random
    row: a flipped parity byte, a parity term swapped for another mint,
    a stored block replaced by a flipped adopted copy."""
    import random

    rng = random.Random(seed)
    block, shards, slots = 64, 3, 2
    factory = ContentFactory(seed=seed)
    rows = 2 if seed % 4 >= 2 else 1
    stack = Lstor(Simulator(), factory, "S", block, data_shards=shards, parity_count=rows)
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
            if held.terms and rng.random() < 0.2:
                old = pickle.loads(pickle.dumps(held))  # equal terms, another object
            new = zero if op == "delete" else factory.make(f"v{rng.randrange(3)}", 0, block)
            stack.absorb_update(shard, slot, old, new)
            disk[shard, slot] = new
        elif op == "read":
            stack.parity_block(slot)
        elif op == "pickle":
            stack, disk = pickle.loads(pickle.dumps((stack, disk)))
        elif op == "corrupt":
            row, mutant = rng.randrange(rows), rng.choice(["byte", "term", "stored"])
            parity = stack._parity[row].get(slot)
            terms = sorted(parity.coefficients()) if parity is not None else []
            if mutant == "byte" and parity is not None:
                _flip_parity_byte(stack, slot, row)
            elif mutant == "term" and terms:
                other = factory.make(f"x{step}", 0, block)
                _swap_parity_term(stack, slot, terms[0], other, row)
            elif not held.is_zero():
                disk[shard, slot] = _flipped(held)
        elif op == "reset":
            stack.reset()
            disk.clear()
        copy, copy_disk = pickle.loads(pickle.dumps((stack, disk)))
        before = _observed(stack, disk)
        for read in range(slots):
            blocks = {s: disk.get((s, read), zero) for s in range(shards)}
            copies = {s: copy_disk.get((s, read), copy.factory.zero(block)) for s in range(shards)}
            verdict = stack.covers(read, blocks)
            assert verdict == folding_covers(copy, read, copies), (step, op, read)
            verdicts.append(verdict)
        assert _observed(stack, disk) == before, (step, op)
    assert True in verdicts and False in verdicts


def _stored_block(dfs):
    """A parity-trusted DataNode, a slot, and a rewritten block stored
    there, whose one term is in that slot's parity."""
    for datanode in dfs._parity_trusted():
        parity = datanode.lstors._parity[0]
        for (_sc_id, slot), name in sorted(datanode._block_at.items()):
            (term,) = datanode._contents[name].terms
            if term[2] > 1 and term in parity[slot].terms:
                return datanode, slot, name
    raise AssertionError("no rewritten block")


@pytest.mark.parametrize("mutant", ["parity byte", "parity term", "stored slot"])
def test_parity_checks_reject_each_mutant(mutant):
    """On a soak-sized cluster after writes and a rewrite, both the
    cancelling ``verify_parity`` and the folding oracle pass, and each
    reject one flipped parity byte, one parity term swapped for another
    mint, and one stored block replaced by an adopted copy with one
    flipped byte."""
    dfs = build_cluster(5)

    def body():
        yield from dfs.clients[0].write_file("/f", 4 * dfs.config.block_size)
        yield from dfs.clients[1].rewrite_file("/f")

    dfs.sim.run_process(body())
    dfs.verify_parity()
    folding_verify_parity(pickle.loads(pickle.dumps(dfs)))
    datanode, slot, name = _stored_block(dfs)
    lstor = datanode.lstors
    stored = datanode._contents[name]
    if mutant == "parity byte":
        _flip_parity_byte(lstor, slot)
    elif mutant == "parity term":
        (term,) = stored.terms
        _swap_parity_term(lstor, slot, term, dfs.factory.make("another", 1, len(stored)))
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
    factory = ContentFactory()
    with pytest.raises(ValueError):
        Lstor(sim, factory, "S", BLOCK, data_shards=4, parity_count=0)


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
    stack.devices[0].fail()
    survivors = {s: p for s, p in contents.items() if s != 2}
    rebuilt = stack.reconstruct_block(0, survivors, missing_shards=[2])
    assert rebuilt[2] == contents[2]


def test_stack_with_all_lstors_dead_raises():
    _sim, factory, stack = make_stack(parity_count=1, data_shards=3)
    stack.devices[0].fail()
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


def test_stack_cannot_recover_more_losses_than_live_rows():
    _sim, factory, stack = make_stack(parity_count=2, data_shards=5)
    with pytest.raises(CodingError, match="3 lost superchunks"):
        stack.reconstruct_block(0, {}, missing_shards=[0, 1, 2])
    stack.devices[1].fail()
    with pytest.raises(CodingError, match="has 1"):
        stack.reconstruct_block(0, {}, missing_shards=[0, 1])


@settings(max_examples=15, deadline=None)
@given(
    parity_count=st.integers(min_value=1, max_value=3),
    updates=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_stacked_rows_are_the_codec_encoding(parity_count, updates, seed):
    """Every row's bytes are the Reed-Solomon encoding of the blocks it
    absorbed (plain XOR for one row), whether a block is a mint or a
    dense residue, and a rebuild from a mix of the two is bit-exact."""
    import random

    rng = random.Random(seed)
    block, data_shards = 48, 5
    _sim, factory, stack = make_stack(parity_count, data_shards, block)
    current = {s: factory.zero(block) for s in range(data_shards)}
    for version in range(1, updates + 1):
        shard = rng.randrange(data_shards)
        new = factory.make(f"s{shard}", version, block)
        if rng.random() < 0.3:
            new = Payload.adopt(new.data.copy())
        stack.absorb_update(shard, 0, current[shard], new)
        current[shard] = new
    data = [current[s].data for s in range(data_shards)]
    if parity_count == 1:
        expected = [np.bitwise_xor.reduce(data)]
    else:
        expected = ReedSolomon(data_shards, parity_count).encode(data)
    for row, encoded in enumerate(expected):
        assert np.array_equal(stack.parity_block(0, row).data, encoded)
    missing = rng.sample(range(data_shards), k=parity_count)
    survivors = {s: p for s, p in current.items() if s not in missing}
    rebuilt = stack.reconstruct_block(0, survivors, missing_shards=missing)
    for shard in missing:
        assert np.array_equal(rebuilt[shard].data, data[shard])


def test_a_stack_draws_nothing(monkeypatch):
    """Absorbs, the preallocation fold, parity checks and a two-loss
    rebuild through two RS rows are term algebra: no stream drawn."""
    draws = []
    real_draw = payload_module._draw
    monkeypatch.setattr(
        payload_module, "_draw", lambda seed, length: draws.append(length) or real_draw(seed, length)
    )
    _sim, factory, stack = make_stack(parity_count=2, data_shards=4)
    stack.prefill([(0, 100), (3, 103)])
    disk = {0: filler(factory, 100, 0, BLOCK), 3: filler(factory, 103, 0, BLOCK)}
    for version in range(1, 4):
        for shard in (0, 1, 2):
            new = factory.make(f"s{shard}", version, BLOCK)
            stack.absorb_update(shard, 0, disk.get(shard, factory.zero(BLOCK)), new)
            disk[shard] = new
    assert stack.covers(0, disk)
    rebuilt = stack.reconstruct_block(0, {1: disk[1], 2: disk[2]}, missing_shards=[0, 3])
    assert rebuilt == {0: disk[0], 3: disk[3]} and stack.covers(0, disk)
    assert draws == []
