"""Lstor: the per-disk parity add-on (paper §3.2, §3.3).

An Lstor is a small persistent device attached to one disk.  It fails
independently of the disk and stores:

- a parity region the size of one superchunk, holding an erasure code of
  *all* superchunks on the local disk, indexed here by block slot within
  the superchunk (parity slot ``j`` covers block ``j`` of every local
  superchunk), and
- the disk's append-only journal (:mod:`repro.core.journal`).

A disk may stack ``k`` Lstors (§3.3) to survive ``k + 1`` simultaneous
disk failures.  :class:`Lstor` keeps all ``k`` as the rows of one code:
row ``r`` holds ``sum_i c[r][i] * block_i`` over the disk's superchunks
``i``, in GF(256), with every ``c = 1`` (plain XOR) for a single Lstor
and the parity rows of :mod:`repro.ec.reed_solomon`'s generator for a
stack.  Over mint terms (:mod:`repro.storage`) such a sum is a
combination of terms, so parity upkeep, its checks and a rebuild draw
no byte, whatever ``k`` is.  The stack keeps one journal, the disk's:
it sits on row 0's device and dies with it.

Timing: parity arithmetic is offloaded to the Lstor's own logic (paper
§2), so Lstor operations charge *no* datanode CPU; the simulated cost is
the transfer into the device, charged at :data:`LSTOR_WRITE_RATE`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro import units
from repro.core.journal import Journal
from repro.ec.gf256 import GF256
from repro.ec.reed_solomon import ReedSolomon
from repro.errors import CodingError, LstorFailedError
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


class LstorDevice(InlineState):
    """One parity device of a disk: it fails on its own."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.failed = False

    def fail(self) -> None:
        self.failed = True


class Lstor(InlineState):
    """A disk's ``parity_count`` parity devices, one row each, and its
    journal.

    Row ``r`` at block slot ``s`` is ``sum_i c[r][i] * block_s(i)``,
    where ``i`` is a superchunk's slot on this disk (its data shard
    index).  A payload's terms carry coefficients, so an absorb adds
    ``c[r][i] * (old ^ new)`` to each live row as terms: a write's
    ``old`` cancels the term its previous write added as ``new``, and no
    byte is drawn (or, being a mint, ever made).  With ``parity_count``
    rows the cluster survives ``parity_count + 1`` simultaneous disk
    failures: such a failure loses at most ``parity_count`` superchunks
    of any one disk (one shared with each other failed disk), and the
    rows recover them.  ``journal`` is the disk's one journal, named
    after row 0's device, on which it lives.
    """

    def __init__(
        self,
        sim: Simulator,
        factory: ContentFactory,
        name: str,
        block_size: int,
        data_shards: int,
        parity_count: int = 1,
        journal_capacity: int = 128 * units.MiB,
    ) -> None:
        if parity_count < 1:
            raise ValueError("need at least one Lstor in a stack")
        self.factory = factory
        self.name = name
        self.block_size = block_size
        self.parity_count = parity_count
        self.devices = [LstorDevice(f"{name}.L{row}") for row in range(parity_count)]
        self.journal = Journal(
            capacity=journal_capacity,
            now=sim.now,
            trace=sim.trace,
            name=self.devices[0].name,
        )
        #: ``c[row][shard]``: plain XOR for one Lstor (§3.2), the
        #: Reed-Solomon generator's parity rows for a stack (§3.3).
        self.coefficients = (
            ReedSolomon(data_shards, parity_count).parity_rows()
            if parity_count > 1 else [[1] * data_shards]
        )
        self._parity: List[Dict[int, Payload]] = [{} for _ in self.devices]
        # Tags of already-absorbed updates: device-side sequence-number
        # dedup, which makes journal roll-forward idempotent.
        self._absorbed_tags: Set[Hashable] = set()
        # Preallocated superchunks as (shard index, sc_id): the parity
        # covers their fillers from the start, but a slot's share is
        # added only when the slot is first read (``_folded``), so a
        # build mints nothing.  Addition is indifferent to order, so
        # absorbs before the fold land exactly where they would have.
        self._prefilled: List[Tuple[int, int]] = []
        self._folded: Set[int] = set()

    @property
    def primary(self) -> LstorDevice:
        return self.devices[0]

    def live_rows(self) -> List[int]:
        return [row for row, device in enumerate(self.devices) if not device.failed]

    def journal_write_time(self, nbytes: int) -> float:
        """Time to persist one journal record of ``nbytes`` of new data.

        A record carries new data, old data, and parity (3x), but the
        device streams them concurrently from its staging DRAM; the
        bottleneck is the record's dominant component.
        """
        return nbytes / LSTOR_WRITE_RATE

    def reset(self, now: float = 0.0) -> None:
        """Model replaced Lstors: zero parity, empty journal, healthy.

        Used when a node rejoins after recovery already re-homed its
        data -- the replacement disk ships with fresh parity devices, so
        the zero parity matches the (empty) disk it now covers.
        """
        for device in self.devices:
            device.failed = False
        self.journal.drop_all(now)
        for parity in self._parity:
            parity.clear()
        self._absorbed_tags.clear()
        self._prefilled.clear()
        self._folded.clear()

    # ------------------------------------------------------------------
    # Preallocation baseline.
    # ------------------------------------------------------------------
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
        """Add the preallocation fillers at ``slot`` to every parity row,
        once -- failed rows too: they held them before failing."""
        if not self._prefilled or slot in self._folded:
            return
        fillers = self._fillers(slot)
        self._folded.add(slot)
        for shard_index, payload in fillers:
            self._add(slot, shard_index, payload, range(self.parity_count))

    # ------------------------------------------------------------------
    # Parity plane.
    # ------------------------------------------------------------------
    def _stored(self, row: int, slot: int) -> Payload:
        parity = self._parity[row].get(slot)
        return parity if parity is not None else self.factory.zero(self.block_size)

    def _add(self, slot: int, shard_index: int, delta: Payload, rows: Iterable[int]) -> None:
        """Row ``r`` at ``slot`` += ``c[r][shard_index] * delta``: the one
        parity update, of absorbs and of the preallocation fold."""
        for row in rows:
            scaled = delta.scaled(self.coefficients[row][shard_index])
            self._parity[row][slot] = self._stored(row, slot) ^ scaled

    def _combine(self, row: int, blocks: Iterable[Tuple[int, Payload]]) -> Payload:
        """``sum c[row][shard] * block`` over ``(shard, block)`` pairs; a
        block shorter than the slot occupies the slot's head."""
        return _weighted_sum(
            self.factory.zero(self.block_size),
            (
                (self.coefficients[row][shard], block.resized(self.block_size))
                for shard, block in blocks
            ),
        )

    def parity_block(self, slot: int, row: int = 0) -> Payload:
        """Row ``row``'s parity at block slot ``slot`` (zero if
        untouched), with the slot's preallocation baseline brought in: an
        immutable payload, which later absorbs replace and never mutate
        (journal records stay correct)."""
        self._fold_baseline(slot)
        if self.devices[row].failed:
            raise LstorFailedError(f"access to failed Lstor {self.devices[row].name}")
        return self._stored(row, slot)

    def absorb_update(
        self,
        shard_index: int,
        slot: int,
        old: Payload,
        new: Payload,
        tag: Optional[Hashable] = None,
    ) -> None:
        """Propagate one block update into every live parity row.

        The one place a write's ``old XOR new`` delta is applied.
        ``shard_index`` is the superchunk's slot on this disk;
        ``slot`` is the block slot within the superchunk.  ``tag``, when
        given, deduplicates: an update absorbed under the same tag twice
        is applied once (journal replay idempotency).  A failed row
        absorbs nothing: with every row dead the disk keeps serving,
        degraded to plain replication until the devices are reset.  Pure
        state change: the writer charges the device-transfer time.
        """
        if tag is not None:
            if tag in self._absorbed_tags:
                return
            self._absorbed_tags.add(tag)
        delta = old.resized(self.block_size) ^ new.resized(self.block_size)
        self._add(slot, shard_index, delta, self.live_rows())

    def covers(self, slot: int, blocks: Dict[int, Payload]) -> bool:
        """Does every live row at ``slot`` hold its sum of ``blocks``
        (shard index -> the disk's block there)?

        An observer: the fillers not yet folded at ``slot`` join the
        expected side instead of the parity, so nothing changes.  Over
        mints the two sides are equal term maps and ``==`` draws nothing.
        """
        known = list(blocks.items()) + self._fillers(slot)
        return all(
            self._stored(row, slot) == self._combine(row, known) for row in self.live_rows()
        )

    def reconstruct_block(
        self,
        slot: int,
        surviving_blocks: Dict[int, Payload],
        missing_shards: List[int],
    ) -> Dict[int, Payload]:
        """Rebuild missing superchunk blocks at ``slot``.

        ``surviving_blocks`` maps shard index (superchunk slot on this
        disk) to its block payload; a shard in neither argument was never
        written and counts as zero.  A block shorter than the slot
        occupies the slot's head; a caller cuts a rebuilt block back to
        its size.  Each of ``len(missing_shards)`` live rows, less its
        survivors' share, leaves a sum of the missing blocks alone; the
        inverse of that system's coefficients solves it.  For one Lstor
        this is the XOR chain of the paper's Fig. 2, which over mints
        cancels to the lost block's terms.
        """
        rows = self.live_rows()
        if not rows:
            raise LstorFailedError(f"no live Lstor in stack {self.name}")
        if len(rows) < len(missing_shards):
            raise CodingError(
                f"{len(missing_shards)} lost superchunks need as many live "
                f"Lstors; {self.name} has {len(rows)}"
            )
        rows = rows[: len(missing_shards)]
        survivors = list(surviving_blocks.items())
        sums = [self.parity_block(slot, row) ^ self._combine(row, survivors) for row in rows]
        inverse = GF256.mat_invert(
            [[self.coefficients[row][shard] for shard in missing_shards] for row in rows]
        )
        zero = self.factory.zero(self.block_size)
        return {
            shard: _weighted_sum(zero, zip(weights, sums))
            for shard, weights in zip(missing_shards, inverse)
        }


def _weighted_sum(zero: Payload, pairs: Iterable[Tuple[int, Payload]]) -> Payload:
    """``sum coef * payload`` over ``(coef, payload)`` pairs, from ``zero``."""
    total = zero
    for coef, payload in pairs:
        total = total ^ payload.scaled(coef)
    return total
