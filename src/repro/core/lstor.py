"""Lstor: the per-disk parity add-on (paper §3.2).

An Lstor is a small persistent device attached to one disk.  It fails
independently of the disk and stores:

- a parity region the size of one superchunk, holding an erasure code of
  *all* superchunks on the local disk, indexed here by block slot within
  the superchunk (parity slot ``j`` covers block ``j`` of every local
  superchunk), and
- the append-only journal of :mod:`repro.core.journal`.

With a single Lstor per disk the erasure code is plain XOR -- both in the
real-bytes plane and in the symbolic plane, where XOR is symmetric set
difference.  :class:`LstorStack` generalizes to ``k`` Lstors per disk
using the Reed-Solomon rows of :mod:`repro.ec.reed_solomon`, allowing the
system to survive ``k + 1`` simultaneous disk failures (bytes plane only,
since Reed-Solomon needs real field arithmetic).

Timing: parity arithmetic is offloaded to the Lstor's own logic (paper
§2), so Lstor operations charge *no* datanode CPU; the simulated cost is
the transfer into the device, charged at :data:`LSTOR_WRITE_RATE`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import units
from repro.core.journal import Journal
from repro.ec.reed_solomon import ReedSolomon
from repro.errors import LstorFailedError
from repro.sim.engine import Simulator
from repro.storage.payload import (
    BytesPayload,
    ContentFactory,
    Payload,
    XorAccumulator,
    cancel_equal_pairs,
    xor_matches,
)
from repro.sim.snapshot import InlineState

#: Transfer rate into an Lstor: parity deltas and journal records.
LSTOR_WRITE_RATE = 1.2 * units.GB


def filler_name(sc_id: int, slot: int) -> str:
    return f"pre_sc{sc_id}_s{slot}"


def filler(factory: ContentFactory, sc_id: int, slot: int, block_size: int) -> Payload:
    """The preallocation content of block slot ``slot`` of superchunk
    ``sc_id`` (the update-oriented setup, paper §5).  A pure function of
    its arguments, so both mirrors and the parity derive it alike."""
    return factory.make(filler_name(sc_id, slot), 0, block_size)


class Lstor(InlineState):
    """One parity device: an XOR region plus a journal.

    In the bytes plane a slot's parity is its accumulator XOR its
    *pending* terms: per shard (the superchunk's slot on the disk), the
    content last absorbed as ``new`` and not yet folded.  The next write
    to that shard usually names the same object as ``old``, and
    ``x ^ x = 0`` exactly, so a version overwritten before any parity
    read is never XORed (nor, being a deferred mint, ever made).
    :meth:`parity_terms` hands both parts to a verifier as they are.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: ContentFactory,
        name: str,
        block_size: int,
        journal_capacity: int = 128 * units.MiB,
    ) -> None:
        self.sim = sim
        self.factory = factory
        self.name = name
        self.block_size = block_size
        self.journal = Journal(
            capacity=journal_capacity, now=sim.now, trace=sim.trace, name=name
        )
        self.failed = False
        self._parity: Dict[int, Payload] = {}
        # Bytes-plane fast path: per-slot XOR accumulators, so absorbing
        # a delta is one in-place bitwise_xor with no payload allocation.
        # ``_parity`` doubles as the cache of the snapshots handed out by
        # :meth:`parity_block`, copy-on-write: a snapshot adopts its
        # slot's accumulator, and the next fold there copies it first.
        self._parity_accum: Dict[int, "np.ndarray"] = {}
        # slot -> {shard: content absorbed as ``new``, not yet folded}.
        self._pending: Dict[int, Dict[int, Payload]] = {}
        # Tags of already-absorbed updates: device-side sequence-number
        # dedup, which makes journal roll-forward idempotent.
        self._absorbed_tags: set = set()

    # ------------------------------------------------------------------
    # Failure model: Lstors fail separately from their disks.
    # ------------------------------------------------------------------
    def fail(self) -> None:
        self.failed = True

    def reset(self, now: float = 0.0) -> None:
        """Model a replaced Lstor: zero parity, empty journal, healthy.

        Used when a node rejoins after recovery already re-homed its
        data -- the replacement disk ships with a fresh parity device, so
        the zero parity matches the (empty) disk it now covers.
        """
        self.failed = False
        self._parity.clear()
        self._parity_accum.clear()
        self._pending.clear()
        self._absorbed_tags.clear()
        self.journal.drop_all(now)

    def _check_alive(self) -> None:
        if self.failed:
            raise LstorFailedError(f"access to failed Lstor {self.name}")

    # ------------------------------------------------------------------
    # Parity plane.
    # ------------------------------------------------------------------
    def parity_block(self, slot: int) -> Payload:
        """Current parity for block slot ``slot`` (zero if untouched).

        The slot's pending terms are folded in first.  The returned
        payload is an immutable snapshot: later absorbs at the same slot
        never mutate it (journal records stay correct).  It costs no
        copy: the next fold into the slot copies the buffer.
        """
        self._check_alive()
        return self._current(slot)

    def parity_terms(self, slot: int) -> Tuple[Optional[np.ndarray], List[Payload]]:
        """The bytes-plane parity at ``slot`` as its parts: the
        accumulator (``None`` when zero) and the pending terms, whose XOR
        it is.  Folds, copies and draws nothing; the caller only reads
        the accumulator."""
        self._check_alive()
        return self._parity_accum.get(slot), list(self._pending.get(slot, {}).values())

    def _current(self, slot: int) -> Payload:
        pending = self._pending.pop(slot, None)
        if pending:
            self._xor_in(slot, tuple(pending.values()))
        parity = self._parity.get(slot)
        if parity is None:
            accum = self._parity_accum.get(slot)
            if accum is None:
                return self.factory.zero(self.block_size)
            # The snapshot adopts the accumulator, no copy; cached until
            # the next fold at this slot copies it (see ``_xor_in``).
            parity = BytesPayload.adopt(accum)
            self._parity[slot] = parity
        return parity

    def absorb(
        self,
        slot: int,
        *terms: Payload,
        tag: Optional[Hashable] = None,
        shard: Optional[int] = None,
    ) -> None:
        """Fold the XOR of ``terms`` into the parity at ``slot``.

        ``terms`` is one delta (= old XOR new) or a write's old and new
        content; the bytes plane folds each term into the parity in
        place, so the delta itself is never allocated.  Given the
        ``shard`` whose content moves from ``old`` to ``new``, it defers
        instead: an ``old`` that is the shard's pending term cancels it
        with no XOR, any other is folded together with that term, and
        ``new`` becomes the pending term.  ``tag``, when given,
        deduplicates: an update absorbed under the same tag twice is
        applied once (journal replay idempotency).  Pure state change:
        the writer charges the device-transfer time.
        """
        self._check_alive()
        if tag is not None:
            if tag in self._absorbed_tags:
                return
            self._absorbed_tags.add(tag)
        if shard is None or self.factory.symbolic:
            self._xor_in(slot, terms)
            return
        old, new = terms
        pending = self._pending.setdefault(slot, {})
        held = pending.get(shard)
        if held is not old:
            self._xor_in(slot, (old,) if held is None else (held, old))
        pending[shard] = new

    def _xor_in(self, slot: int, terms: Tuple[Payload, ...]) -> None:
        """The parity arithmetic of :meth:`absorb`, with no liveness or
        tag check: :class:`LstorStack` also folds preallocation baselines
        through it, which a failed device held from before it failed."""
        if not self.factory.symbolic and isinstance(terms[0], BytesPayload):
            folds: List[BytesPayload] = []
            for term in terms:
                if not isinstance(term, BytesPayload):
                    raise TypeError("cannot XOR bytes with symbolic payload")
                if not term._zero:
                    folds.append(term)
            if not folds:
                return  # known zeros change nothing: no buffer, no copy
            accum = self._parity_accum.get(slot)
            if accum is None:
                accum = np.zeros(self.block_size, dtype=np.uint8)
                self._parity_accum[slot] = accum
            elif self._parity.pop(slot, None) is not None:
                # A cached snapshot owns this buffer: copy on write.  Keyed
                # on the cache entry, not on ``flags.writeable``, which a
                # pickle round trip sets again.
                accum = self._parity_accum[slot] = accum.copy()
            for fold in folds:
                fold.xor_into(accum)
        else:
            delta = terms[0]
            for term in terms[1:]:
                delta = delta.xor(term)
            self._parity[slot] = self._current(slot).xor(delta)

    def journal_write_time(self, nbytes: int) -> float:
        """Time to persist one journal record of ``nbytes`` of new data.

        A record carries new data, old data, and parity (3x), but the
        device streams them concurrently from its staging DRAM; the
        bottleneck is the record's dominant component.
        """
        return nbytes / LSTOR_WRITE_RATE


class LstorStack(InlineState):
    """``k`` Lstors on one disk: Reed-Solomon parities over superchunks.

    Lstor ``i`` in the stack stores parity row ``i`` of an RS code whose
    data shards are the disk's superchunks (shard index = the
    superchunk's slot on this disk).  With ``k`` stacked Lstors the
    cluster survives ``k + 1`` simultaneous disk failures: a (k+1)-failure
    loses at most ``k`` superchunks on any given disk (one shared with
    each other failed disk), and the k parities recover them.

    Requires the bytes plane: Reed-Solomon coefficients have no symbolic
    analogue.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: ContentFactory,
        name: str,
        block_size: int,
        data_shards: int,
        parity_count: int,
        journal_capacity: int = 128 * units.MiB,
    ) -> None:
        if parity_count < 1:
            raise ValueError("need at least one Lstor in a stack")
        if factory.symbolic and parity_count > 1:
            raise ValueError("stacked Lstors require the bytes payload plane")
        self.sim = sim
        self.factory = factory
        self.name = name
        self.block_size = block_size
        self.data_shards = data_shards
        self.parity_count = parity_count
        self.lstors: List[Lstor] = [
            Lstor(
                sim,
                factory,
                name=f"{name}.L{i}",
                block_size=block_size,
                journal_capacity=journal_capacity,
            )
            for i in range(parity_count)
        ]
        self._codec = (
            ReedSolomon(data_shards, parity_count) if parity_count > 1 else None
        )
        # Preallocated superchunks as (shard index, sc_id): the parity
        # covers their fillers from the start, but a slot's share is
        # folded in only when the slot is first read (``_folded``).  XOR
        # and the RS rows are indifferent to order, so absorbs before the
        # fold land exactly where they would have.
        self._prefilled: List[Tuple[int, int]] = []
        self._folded: Set[int] = set()

    @property
    def primary(self) -> Lstor:
        return self.lstors[0]

    def alive_lstors(self) -> List[Lstor]:
        return [l for l in self.lstors if not l.failed]

    def reset(self, now: float = 0.0) -> None:
        """Replace every Lstor in the stack (see :meth:`Lstor.reset`)."""
        for lstor in self.lstors:
            lstor.reset(now)
        self._prefilled.clear()
        self._folded.clear()

    def prefill(self, superchunks: List[Tuple[int, int]]) -> None:
        """Cover the fillers (:func:`filler`) of preallocated superchunks,
        given as ``(shard_index, sc_id)`` pairs, without minting any."""
        self._prefilled.extend(superchunks)

    def _fold_baseline(self, slot: int) -> None:
        """Fold the preallocation fillers at ``slot`` into every parity
        row, once -- failed rows too: they held them before failing."""
        if not self._prefilled or slot in self._folded:
            return
        self._folded.add(slot)
        zero = self.factory.zero(self.block_size)
        for shard_index, sc_id in self._prefilled:
            payload = filler(self.factory, sc_id, slot, self.block_size)
            if self._codec is None:
                self.lstors[0]._xor_in(slot, (payload,))
                continue
            for lstor, delta in zip(
                self.lstors, self._row_deltas(shard_index, zero, payload)
            ):
                lstor._xor_in(slot, (delta,))

    def _row_deltas(
        self, shard_index: int, old: Payload, new: Payload
    ) -> List[BytesPayload]:
        """The codec's per-row parity deltas of one shard update."""
        assert self._codec is not None
        if not isinstance(old, BytesPayload) or not isinstance(new, BytesPayload):
            raise TypeError("stacked Lstors require BytesPayload data")
        # The codec returns freshly allocated buffers: adopt them copy-free.
        return [
            BytesPayload.adopt(delta)
            for delta in self._codec.parity_delta(shard_index, old.data, new.data)
        ]

    def parity_block(self, slot: int) -> Payload:
        """The primary's parity at block slot ``slot`` (see
        :meth:`Lstor.parity_block`): the read path, which brings in the
        slot's preallocation baseline first."""
        self._fold_baseline(slot)
        return self.primary.parity_block(slot)

    def parity_terms(self, slot: int) -> Tuple[Optional[np.ndarray], List[Payload]]:
        """A single Lstor's :meth:`Lstor.parity_terms` at ``slot``, plus
        the preallocation fillers not yet folded there (minted, not
        drawn)."""
        assert self._codec is None, "the terms of a single Lstor only"
        accum, terms = self.primary.parity_terms(slot)
        if slot not in self._folded:
            terms += [
                filler(self.factory, sc_id, slot, self.block_size)
                for _shard, sc_id in self._prefilled
            ]
        return accum, terms

    def covers(self, slot: int, payloads: Sequence[Payload]) -> bool:
        """Is the primary's parity at ``slot`` the XOR of ``payloads``?

        A single bytes-plane Lstor answers without changing anything:
        ``payloads`` and :meth:`parity_terms` cancel in provably equal
        pairs (usually each stored block against its own pending term),
        and only what is left is read, transiently, and compared with
        the accumulator.  Stacked and token-plane Lstors fold as a
        parity read does.
        """
        if self._codec is not None or self.factory.symbolic:
            expected = XorAccumulator(self.factory.zero(self.block_size))
            for payload in payloads:
                expected.add(payload)
            return self.parity_block(slot) == expected.result()
        accum, terms = self.parity_terms(slot)
        left = cancel_equal_pairs([*payloads, *terms])  # type: ignore[list-item]
        return xor_matches(accum, left)

    def absorb_update(
        self,
        shard_index: int,
        slot: int,
        old: Payload,
        new: Payload,
        tag: Optional[Hashable] = None,
    ) -> None:
        """Propagate one block update into every parity in the stack.

        The one place a write's ``old XOR new`` delta is applied; a
        single Lstor takes ``old`` and ``new`` with the shard, whose
        pending term ``old`` usually cancels (see :meth:`Lstor.absorb`),
        stacked Lstors get the codec's per-row deltas.
        ``shard_index`` is the superchunk's slot on this disk (the RS data
        shard index); ``slot`` is the block slot within the superchunk.
        ``tag`` deduplicates replays (see :meth:`Lstor.absorb`).
        """
        if self._codec is None:
            if not self.lstors[0].failed:
                # A failed Lstor absorbs nothing: the disk keeps serving,
                # degraded to plain replication until the device is reset.
                self.lstors[0].absorb(slot, old, new, tag=tag, shard=shard_index)
            return
        for lstor, delta in zip(self.lstors, self._row_deltas(shard_index, old, new)):
            if not lstor.failed:
                lstor.absorb(slot, delta, tag=tag)

    def reconstruct_block(
        self,
        slot: int,
        surviving_blocks: Dict[int, Payload],
        missing_shards: List[int],
    ) -> Dict[int, Payload]:
        """Rebuild missing superchunk blocks at ``slot``.

        ``surviving_blocks`` maps shard index (superchunk slot on this
        disk) to its block payload; ``missing_shards`` lists the shard
        indices to recover.  For a single Lstor this is the XOR chain of
        the paper's Fig. 2; for stacks it is an RS decode.
        """
        self._fold_baseline(slot)
        alive = self.alive_lstors()
        if not alive:
            raise LstorFailedError(f"no live Lstor in stack {self.name}")
        if self._codec is None:
            if len(missing_shards) != 1:
                raise ValueError("a single Lstor recovers exactly one superchunk")
            accum = XorAccumulator(alive[0].parity_block(slot))
            for payload in surviving_blocks.values():
                accum.add(payload)
            return {missing_shards[0]: accum.result()}
        shards: Dict[int, Payload] = dict(surviving_blocks)
        full: Dict[int, "BytesPayload"] = {
            i: p for i, p in shards.items() if isinstance(p, BytesPayload)
        }
        arrays = {i: p.data for i, p in full.items()}
        # Missing *data* shards default to zeros if they were never
        # written; parity shards come from the live Lstors.
        for index, lstor in enumerate(self.lstors):
            if not lstor.failed:
                parity = lstor.parity_block(slot)
                assert isinstance(parity, BytesPayload)
                arrays[self.data_shards + index] = parity.data
        for shard in range(self.data_shards):
            if shard not in arrays and shard not in missing_shards:
                arrays[shard] = self.factory.zero(self.block_size).data  # type: ignore[union-attr]
        result = {}
        for shard in missing_shards:
            rebuilt = self._codec.reconstruct_shard(
                {i: a for i, a in arrays.items() if i != shard}, shard
            )
            result[shard] = BytesPayload.adopt(rebuilt)
            arrays[shard] = rebuilt
        return result
