"""Lstor: the per-disk parity add-on (paper §3.2).

An Lstor is a small persistent device attached to one disk.  It fails
independently of the disk and stores:

- a parity region the size of one superchunk, holding an erasure code of
  *all* superchunks on the local disk, indexed here by block slot within
  the superchunk (parity slot ``j`` covers block ``j`` of every local
  superchunk), and
- the append-only journal of :mod:`repro.core.journal`.

With a single Lstor per disk the erasure code is plain XOR, which over
mint terms is symmetric set difference (:mod:`repro.storage`): parity
upkeep, its checks and a rebuild's fold draw no byte.
:class:`LstorStack` generalizes to ``k`` Lstors per disk using the
Reed-Solomon rows of :mod:`repro.ec.reed_solomon`, allowing the system
to survive ``k + 1`` simultaneous disk failures; its rows need real
field arithmetic, so a stack draws the blocks it encodes.

Timing: parity arithmetic is offloaded to the Lstor's own logic (paper
§2), so Lstor operations charge *no* datanode CPU; the simulated cost is
the transfer into the device, charged at :data:`LSTOR_WRITE_RATE`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro import units
from repro.core.journal import Journal
from repro.ec.reed_solomon import ReedSolomon
from repro.errors import LstorFailedError
from repro.sim.engine import Simulator
from repro.storage.payload import ContentFactory, Payload
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

    A slot's parity is a :class:`~repro.storage.payload.Payload`, the XOR
    of every ``old`` and ``new`` absorbed there.  Over mints that is a
    set of terms: a write's ``old`` is the term its previous write
    absorbed as ``new``, so an overwritten version cancels exactly and no
    byte is drawn (or, being a mint, ever made).
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
        self._absorbed_tags.clear()
        self.journal.drop_all(now)

    def _check_alive(self) -> None:
        if self.failed:
            raise LstorFailedError(f"access to failed Lstor {self.name}")

    # ------------------------------------------------------------------
    # Parity plane.
    # ------------------------------------------------------------------
    def parity_block(self, slot: int) -> Payload:
        """Current parity for block slot ``slot`` (zero if untouched): an
        immutable payload, which later absorbs replace and never mutate
        (journal records stay correct)."""
        self._check_alive()
        parity = self._parity.get(slot)
        return parity if parity is not None else self.factory.zero(self.block_size)

    def absorb(
        self, slot: int, *payloads: Payload, tag: Optional[Hashable] = None
    ) -> None:
        """Fold the XOR of ``payloads`` into the parity at ``slot``.

        ``payloads`` is one delta (= old XOR new) or a write's old and
        new content.  ``tag``, when given, deduplicates: an update
        absorbed under the same tag twice is applied once (journal replay
        idempotency).  Pure state change: the writer charges the
        device-transfer time.
        """
        self._check_alive()
        if tag is not None:
            if tag in self._absorbed_tags:
                return
            self._absorbed_tags.add(tag)
        self._xor_in(slot, payloads)

    def _xor_in(self, slot: int, payloads: Sequence[Payload]) -> None:
        """The parity arithmetic of :meth:`absorb`, with no liveness or
        tag check: :class:`LstorStack` also folds preallocation baselines
        through it, which a failed device held from before it failed."""
        parity = self._parity.get(slot)
        if parity is None:
            parity = self.factory.zero(self.block_size)
        for payload in payloads:
            # A block shorter than the slot occupies the slot's head.
            parity = parity ^ payload.resized(self.block_size)
        self._parity[slot] = parity

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

    The codec's rows multiply bytes in GF(256), so a stack of two or
    more draws every update and keeps its rows as residues; a single
    Lstor keeps terms.
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
        # folded in only when the slot is first read (``_folded``), so a
        # build mints nothing and a stack draws no filler it never reads.
        # XOR and the RS rows are indifferent to order, so absorbs before
        # the fold land exactly where they would have.
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

    def _fillers(self, slot: int) -> List[Tuple[int, Payload]]:
        """``(shard_index, filler)`` at ``slot`` not yet folded there."""
        if slot in self._folded:
            return []
        return [
            (shard_index, filler(self.factory, sc_id, slot, self.block_size))
            for shard_index, sc_id in self._prefilled
        ]

    def _fold_baseline(self, slot: int) -> None:
        """Fold the preallocation fillers at ``slot`` into every parity
        row, once -- failed rows too: they held them before failing."""
        if not self._prefilled or slot in self._folded:
            return
        fillers = self._fillers(slot)
        self._folded.add(slot)
        if self._codec is None:
            self.lstors[0]._xor_in(slot, [payload for _shard, payload in fillers])
            return
        zero = self.factory.zero(self.block_size)
        for shard_index, payload in fillers:
            for lstor, delta in zip(
                self.lstors, self._row_deltas(shard_index, zero, payload)
            ):
                lstor._xor_in(slot, (delta,))

    def _row_deltas(self, shard_index: int, old: Payload, new: Payload) -> List[Payload]:
        """The codec's per-row parity deltas of one shard update."""
        assert self._codec is not None
        # The codec returns freshly allocated buffers: adopt them copy-free.
        size = self.block_size
        return [
            Payload.adopt(delta)
            for delta in self._codec.parity_delta(
                shard_index, old.resized(size).data, new.resized(size).data
            )
        ]

    def parity_block(self, slot: int) -> Payload:
        """The primary's parity at block slot ``slot`` (see
        :meth:`Lstor.parity_block`): the read path, which brings in the
        slot's preallocation baseline first."""
        self._fold_baseline(slot)
        return self.primary.parity_block(slot)

    def covers(self, slot: int, payloads: Sequence[Payload]) -> bool:
        """Is the primary's parity at ``slot`` the XOR of ``payloads``?

        An observer: the fillers not yet folded at ``slot`` join the
        expected side instead of the parity, so nothing changes.  Over
        mints the two sides are equal term sets and ``==`` draws nothing.
        """
        expected = self.factory.zero(self.block_size)
        for payload in payloads:
            expected = expected ^ payload.resized(self.block_size)
        for _shard, payload in self._fillers(slot):
            expected = expected ^ payload
        return self.primary.parity_block(slot) == expected

    def absorb_update(
        self,
        shard_index: int,
        slot: int,
        old: Payload,
        new: Payload,
        tag: Optional[Hashable] = None,
    ) -> None:
        """Propagate one block update into every parity in the stack.

        The one place a write's ``old XOR new`` delta is applied: a
        single Lstor absorbs ``old`` and ``new`` (``old`` usually cancels
        the term its previous write left), stacked Lstors get the codec's
        per-row deltas.  ``shard_index`` is the superchunk's slot on this
        disk (the RS data shard index); ``slot`` is the block slot within
        the superchunk.  ``tag`` deduplicates replays (see
        :meth:`Lstor.absorb`).
        """
        if self._codec is None:
            if not self.lstors[0].failed:
                # A failed Lstor absorbs nothing: the disk keeps serving,
                # degraded to plain replication until the device is reset.
                self.lstors[0].absorb(slot, old, new, tag=tag)
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
        indices to recover.  A block shorter than the slot occupies the
        slot's head; a caller cuts a rebuilt block back to its size.  For
        a single Lstor this is the XOR chain of the paper's Fig. 2, which
        over mints cancels to the lost block's terms; for stacks it is an
        RS decode (a codec row is plain XOR only for some shard counts).
        """
        if not self.alive_lstors():
            raise LstorFailedError(f"no live Lstor in stack {self.name}")
        if self._codec is None:
            if len(missing_shards) != 1:
                raise ValueError("a single Lstor recovers exactly one superchunk")
            rebuilt = self.parity_block(slot)
            for payload in surviving_blocks.values():
                rebuilt = rebuilt ^ payload.resized(self.block_size)
            return {missing_shards[0]: rebuilt}
        self._fold_baseline(slot)
        arrays = {i: p.resized(self.block_size).data for i, p in surviving_blocks.items()}
        # Missing *data* shards default to zeros if they were never
        # written; parity shards come from the live Lstors.
        for index, lstor in enumerate(self.lstors):
            if not lstor.failed:
                arrays[self.data_shards + index] = lstor.parity_block(slot).data
        for shard in range(self.data_shards):
            if shard not in arrays and shard not in missing_shards:
                arrays[shard] = self.factory.zero(self.block_size).data
        result = {}
        for shard in missing_shards:
            rebuilt = self._codec.reconstruct_shard(
                {i: a for i, a in arrays.items() if i != shard}, shard
            )
            result[shard] = Payload.adopt(rebuilt)
            arrays[shard] = rebuilt
        return result
