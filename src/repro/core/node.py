"""RAIDP DataNode: superchunk directories, Lstor interposition, journal.

Extends the baseline :class:`~repro.hdfs.datanode.DataNode` with the
paper's Section 5 machinery:

- block files live at fixed offsets inside preallocated superchunk
  regions (``fs_policy="fixed"``); the update-oriented setup's filler
  content is derived on demand, never stored (see
  :meth:`RaidpDataNode.preallocate_superchunks`),
- every block write updates the disk's Lstor parity at the block's slot,
- writes are journaled; the record clears when the mirror's
  acknowledgment arrives,
- the *update-oriented* variant reads old data before overwriting it
  (read-modify-write), the *base* variant treats reused slots as null
  because deleted-block parity is folded in during idle time.

The logical parity ledger is **always** kept bit-exact (deferred work is
free in simulated time, not skipped), so the recovery invariants hold in
every configuration; only the *charged time* differs between variants.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional, Set, Tuple

from repro import units
from repro.core.journal import JournalRecord, RecordState
from repro.core.layout import Layout
from repro.core.lstor import LSTOR_WRITE_RATE, LstorStack, filler
from repro.core.placement import SuperchunkMap
from repro.errors import DfsError
from repro.hdfs.block import Block, BlockLocations
from repro.hdfs.config import ACK_SIZE, DfsConfig
from repro.hdfs.datanode import DataNode
from repro.sim.disk import Disk, DiskTrain
from repro.sim.engine import Event, Simulator
from repro.sim.network import Switch
from repro.sim.resources import Lock
from repro.sim.node import Node
from repro.storage.payload import ContentFactory, Payload
from repro.sim.snapshot import InlineState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hdfs.namenode import NameNode


@dataclass(frozen=True)
class RaidpConfig(InlineState):
    """Feature switches and device parameters of the RAIDP variant.

    The Fig. 8 ablation toggles ``enable_parity`` ("+lstor") and
    ``enable_journal`` ("+journal") on top of the bare superchunk layout;
    ``optimized`` selects block accumulation plus the writer lock;
    ``update_oriented`` enables the read-before-write ("re-write")
    variant with preallocated superchunk files, on the optimized path.
    """

    enable_parity: bool = True
    enable_journal: bool = True
    optimized: bool = True
    update_oriented: bool = False
    lstors_per_disk: int = 1
    journal_capacity: int = 128 * units.MiB
    #: Fraction of old data served from the page cache on the
    #: read-modify-write path.  The paper's methodology repeats each
    #: measurement five times over the same preallocated files, so a
    #: share of the "old" data is still cached from the previous run --
    #: which is how the measured re-write overhead (21%) lands below the
    #: 4-I/Os-vs-3 bound of 33%.
    old_data_cache_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.lstors_per_disk < 1:
            raise ValueError("need at least one Lstor per disk")
        if self.enable_journal and not self.enable_parity:
            raise ValueError("the journal protects parity; enable parity first")
        if self.update_oriented and not self.optimized:
            raise ValueError(
                "the re-write variant rides the optimized (accumulated) path"
            )


class RaidpDataNode(DataNode):
    """A DataNode whose disk is laid out in superchunks with an Lstor."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: DfsConfig,
        factory: ContentFactory,
        layout: Layout,
        superchunk_map: SuperchunkMap,
        raidp: RaidpConfig,
        switch: Switch,
        disk: Optional[Disk] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            sim, node, config, factory, fs_policy="fixed", disk=disk, name=name
        )
        self.layout = layout
        self.map = superchunk_map
        self.raidp = raidp
        self.switch = switch
        self.writer_lock = Lock(sim, name=f"{self.name}.writer")
        self._namenode: Optional["weakref.ref[NameNode]"] = None
        self.lstors = LstorStack(
            sim,
            factory,
            name=f"{self.name}.lstor",
            block_size=config.block_size,
            data_shards=max(len(layout.disks) - 1, 1),
            parity_count=raidp.lstors_per_disk,
            journal_capacity=raidp.journal_capacity,
        )
        # block name -> (sc_id, slot); (sc_id, slot) -> block name.
        self._slot_of: Dict[str, Tuple[int, int]] = {}
        self._block_at: Dict[Tuple[int, int], str] = {}
        # Preallocated superchunks and those of their slots bound (or
        # deleted) since: the others hold their filler.
        self._prefilled: Set[int] = set()
        self._overwritten: Set[Tuple[int, int]] = set()
        # Acks that arrived before our own record committed.
        self._pending_acks: Dict[Tuple[str, int], int] = {}
        self._awaiting_ack: Dict[Tuple[str, int], JournalRecord] = {}

    def attach_namenode(self, namenode: "NameNode") -> None:
        self._namenode = weakref.ref(namenode)

    @property
    def namenode(self) -> Optional["NameNode"]:
        """The NameNode this DataNode reports to, held weakly: the
        NameNode owns its DataNodes, so a strong link back would make
        every cluster a reference cycle."""
        return None if self._namenode is None else self._namenode()

    def __getstate__(self) -> Dict[str, Any]:
        # A weakref does not pickle: a snapshot carries the NameNode
        # itself, which __setstate__ weakens again -- the restored link
        # points at the restored NameNode.
        state = dict(self.__dict__)
        state["_namenode"] = self.namenode
        return state

    def __setstate__(self, state: Any) -> None:
        namenode = state.pop("_namenode")
        super().__setstate__(state)
        self._namenode = None if namenode is None else weakref.ref(namenode)

    # ------------------------------------------------------------------
    # Superchunk geometry.
    # ------------------------------------------------------------------
    def superchunk_base(self, sc_id: int) -> int:
        """Physical byte offset of a superchunk on this disk."""
        sc = self.layout.superchunk(sc_id)
        return sc.slot_on(self.name) * self.layout.spec.superchunk_size

    def block_offset(self, sc_id: int, slot: int) -> int:
        return self.superchunk_base(sc_id) + slot * self.config.block_size

    def shard_index_of(self, sc_id: int) -> int:
        """RS data-shard index of a superchunk: its slot on this disk."""
        return self.layout.superchunk(sc_id).slot_on(self.name)

    # ------------------------------------------------------------------
    # Slot-level content tracking (overrides the name-keyed base store).
    # ------------------------------------------------------------------
    def _holds_filler(self, sc_id: int, slot: int) -> bool:
        return sc_id in self._prefilled and (sc_id, slot) not in self._overwritten

    def slot_payload(self, sc_id: int, slot: int) -> Payload:
        """Current content of a block slot (zero when never written)."""
        name = self._block_at.get((sc_id, slot))
        if name is not None:
            return self.content_of(name)
        if self._holds_filler(sc_id, slot):
            return filler(self.factory, sc_id, slot, self.config.block_size)
        return self.factory.zero(self.config.block_size)

    def read_slot(self, sc_id: int, slot: int, nbytes: int) -> Generator:
        """Charge the disk read of a slot's content: a block through its
        file, a filler (which has none) at the slot's fixed offset, an
        empty slot not at all."""
        name = self._block_at.get((sc_id, slot))
        if name is not None:
            yield from self.fs.read(name, 0, nbytes)
        elif self._holds_filler(sc_id, slot):
            yield from self.disk.read(self.block_offset(sc_id, slot), nbytes)
        return None

    def _bind_slot(self, name: str, sc_id: int, slot: int) -> None:
        self._slot_of[name] = (sc_id, slot)
        self._block_at[(sc_id, slot)] = name
        self._unfill(sc_id, slot)

    def _unfill(self, sc_id: int, slot: int) -> None:
        if sc_id in self._prefilled:
            self._overwritten.add((sc_id, slot))

    # ------------------------------------------------------------------
    # Preallocation (update-oriented evaluation setup, paper §5).
    # ------------------------------------------------------------------
    def preallocate_superchunks(self) -> None:
        """Fill every local slot with deterministic content, parity-consistent.

        Nothing is minted or stored: the DataNode records its superchunks
        as prefilled, and until a block is bound to a slot (or deleted
        from it) the slot's content is its :func:`~repro.core.lstor.filler`,
        derived on demand.  The Lstor stack folds a slot's fillers into
        its parity the first time that slot's parity is read.  Charges no
        simulated time: this models the experiment setup, not the
        measured workload.  Both mirrors of a superchunk derive the same
        fillers, so contents agree bitwise.
        """
        if self._block_at or self._prefilled:
            raise DfsError(
                f"{self.name}: preallocation sets up an empty DataNode, once"
            )
        sc_ids = self.layout.superchunks_of(self.name)
        self._prefilled.update(sc_ids)
        if self.raidp.enable_parity:
            self.lstors.prefill([(self.shard_index_of(sc), sc) for sc in sc_ids])

    # ------------------------------------------------------------------
    # Block file lifecycle.
    # ------------------------------------------------------------------
    def create_block_file(self, locations: BlockLocations) -> None:
        if locations.sc_id is None or locations.slot is None:
            raise DfsError("RAIDP datanode requires superchunk placement")
        name = locations.block.name
        if not self.fs.exists(name):
            offset = self.block_offset(locations.sc_id, locations.slot)
            self.fs.create(name, fixed_offset=offset)

    def delete_block(self, locations: BlockLocations) -> None:
        """Drop a replica; parity removal is deferred-to-idle (free)."""
        sc_id, slot = locations.sc_id, locations.slot
        if sc_id is not None and slot is not None:
            old = self.slot_payload(sc_id, slot)
            if self.raidp.enable_parity and not old.is_zero():
                self.lstors.absorb_update(
                    self.shard_index_of(sc_id),
                    slot,
                    old,
                    self.factory.zero(self.config.block_size),
                )
            self._unfill(sc_id, slot)
            name = self._block_at.pop((sc_id, slot), None)
            if name is not None:
                self._slot_of.pop(name, None)
                self.drop_content(name)
        super().delete_block(locations)

    # ------------------------------------------------------------------
    # Write paths.
    # ------------------------------------------------------------------
    def _write_replica(
        self,
        locations: BlockLocations,
        payload: Payload,
        inbound: Optional[Event],
    ) -> Generator:
        """Optimized: the block accumulates in RAM and is written in one
        I/O under the node-wide writer lock, which stops concurrent
        writers from ping-ponging the head between superchunks.
        Otherwise every packet is its own write (:meth:`_stream_block`).
        """
        if not self.raidp.optimized:
            return (yield from self._stream_block(locations, payload, inbound))
        if inbound is not None:
            yield inbound
        # Packet handling and checksum work happens while the block
        # accumulates in RAM -- before the writer lock, so it overlaps
        # other writers' disk I/O.
        yield from self._process_stream(locations.block.size)
        grant = yield self.writer_lock.request()
        try:
            yield from self._commit_block(locations, payload)
        finally:
            self.writer_lock.release(grant)
        return None

    def _commit_block(self, locations: BlockLocations, payload: Payload) -> Generator:
        """One-shot write of the buffered block with parity + journal."""
        block = locations.block
        sc_id, slot = self._placement_of(locations)
        old = self.slot_payload(sc_id, slot)

        record = None
        if self._journal_active():
            record = self.lstors.primary.journal.append(
                block_name=block.name,
                sc_id=sc_id,
                slot=slot,
                old_data=old,
                new_data=payload,
                nbytes=block.size,
                now=self.sim.now,
                version=locations.version,
            )
            yield self.sim.timeout(
                self.lstors.primary.journal_write_time(block.size)
            )

        if self.raidp.update_oriented and self.raidp.enable_parity and not old.is_zero():
            # Read-modify-write: the old data is needed to compute the
            # parity delta before overwriting it (without parity there is
            # nothing to maintain, so no read -- Fig. 8's re-write
            # "only superchunks" bar matches the base variant).  The
            # rewrite is scheduled immediately after its related read
            # (§3.2), so it pays reduced rotational delay, not a seek.
            cached = self.raidp.old_data_cache_fraction
            yield from self.fs.read_modify_write(
                block.name,
                0,
                block.size,
                read_bytes=int(block.size * (1.0 - cached)),
            )
        else:
            yield from self.fs.write(block.name, 0, block.size)
        yield from self.fs.sync()

        if self.raidp.enable_parity:
            tag = ("w", block.name, locations.version)
            yield from self._absorb_parity(
                sc_id, slot, old, payload, block.size, tag=tag
            )

        self._install_content(locations, payload)
        if record is not None:
            if not self.lstors.primary.failed:
                self.lstors.primary.journal.mark_committed(record.record_id)
            yield from self._send_ack(locations, record)
        return None

    def _journal_active(self) -> bool:
        """Journal only while the primary Lstor lives.

        Losing the Lstor degrades the disk to plain replication: data
        keeps being served and written, but there is no parity to protect
        and no journal device to append to (paper's Lstor-loss case).
        """
        return self.raidp.enable_journal and not self.lstors.primary.failed

    def _stream_block(
        self,
        locations: BlockLocations,
        payload: Payload,
        inbound: Optional[Event],
    ) -> Generator:
        """Unoptimized path: journal, write and sync every 64 KB packet.

        This is the configuration Fig. 8 shows going off the chart: every
        packet is a journal record, a disk write at the block's fixed
        superchunk offset and a sync, and concurrent writers' packets
        ping-pong the head between superchunks.  The packets run as one
        packet train (:meth:`~repro.sim.network.Switch.train`, DESIGN.md
        §4c): alone on its disk it writes one packet per cycle -- journal
        append, write, sync, ack latency, Lstor transfer -- and beside
        other trains one packet per round of the disk, each packet paying
        its seek and its sync.  The journal holds one packet-sized record
        for the train while it runs; an Lstor lost mid-train leaves the
        train at the overheads it opened with.  ``tests/oracles.py``
        keeps the packet loop as the oracle.
        """
        block = locations.block
        sc_id, slot = self._placement_of(locations)
        old = self.slot_payload(sc_id, slot)
        # Without the journal, the page cache coalesces the 64 KB packets
        # and the disk sees write-back-sized chunks (smaller than the
        # streaming batch: concurrent dirtiers trigger early flushes); the
        # journal's sync-per-packet rule forces true packet-granularity
        # I/O, which is what sends this configuration off the chart.
        packet = (
            self.config.packet_size
            if self.raidp.enable_journal
            else 5 * units.MiB // 8
        )
        geometry = self.disk.geometry
        cycle = geometry.transfer_time(packet)
        record = None
        journaling = self._journal_active()
        if journaling:
            journal = self.lstors.primary.journal
            record = journal.append(
                block_name=block.name,
                sc_id=sc_id,
                slot=slot,
                old_data=old,
                new_data=payload,
                nbytes=packet,
                now=self.sim.now,
                version=locations.version,
            )
            # Each packet's remote acknowledgment is charged as latency
            # rather than modeled as a flow.
            cycle += (
                self.lstors.primary.journal_write_time(packet)
                + geometry.sync_time
                + 2 * self.switch.BASE_LATENCY
            )
        if self.raidp.enable_parity:
            cycle += packet / LSTOR_WRITE_RATE
        offset = self.block_offset(sc_id, slot)
        yield from self.disk.seek(offset)
        train = self.switch.train(
            DiskTrain(self.disk, offset, sync=journaling), block.size, packet, cycle
        )
        yield train.done
        if record is not None and not self.lstors.primary.failed:
            journal.mark_committed(record.record_id)
            journal.mark_acked(record.record_id)
            journal.clear(record.record_id, self.sim.now)
        if inbound is not None:
            yield inbound
        yield from self.fs.sync()
        if self.raidp.enable_parity:
            self.lstors.absorb_update(
                self.shard_index_of(sc_id),
                slot,
                old,
                payload,
                tag=("w", block.name, locations.version),
            )
        self._install_content(locations, payload)
        return None

    def _absorb_parity(
        self,
        sc_id: int,
        slot: int,
        old: Payload,
        new: Payload,
        nbytes: int,
        tag: Optional[Tuple] = None,
    ) -> Generator:
        """Logical parity update plus the device-transfer time charge."""
        self.lstors.absorb_update(self.shard_index_of(sc_id), slot, old, new, tag=tag)
        if self.lstors.alive_lstors():  # dead devices absorb and cost nothing
            yield self.sim.timeout(nbytes / LSTOR_WRITE_RATE)
        return None

    def _placement_of(self, locations: BlockLocations) -> Tuple[int, int]:
        if locations.sc_id is None or locations.slot is None:
            raise DfsError(
                f"block {locations.block.name} lacks a superchunk placement"
            )
        return locations.sc_id, locations.slot

    def _install_content(self, locations: BlockLocations, payload: Payload) -> None:
        sc_id, slot = self._placement_of(locations)
        previous = self._block_at.get((sc_id, slot))
        if previous is not None and previous != locations.block.name:
            self._slot_of.pop(previous, None)
            self.drop_content(previous)
        self.store_content(locations.block.name, payload, locations.version)
        self._bind_slot(locations.block.name, sc_id, slot)

    # ------------------------------------------------------------------
    # In-place sub-block updates (paper §8 future work).
    # ------------------------------------------------------------------
    def update_block_range(
        self, locations: BlockLocations, block_offset: int, nbytes: int
    ) -> Generator:
        """Sub-block read-modify-write with parity and journal.

        The range's old bytes are read (to compute the parity delta), the
        new bytes are written in their place, the Lstor absorbs the
        range-sized delta, and the journal records the update.  Both
        mirrors derive the new content deterministically from
        (block name, version), so they stay bit-identical.
        """
        block = locations.block
        sc_id, slot = self._placement_of(locations)
        if block_offset < 0 or block_offset + nbytes > block.size:
            raise DfsError(
                f"update outside block {block.name}: "
                f"[{block_offset}, {block_offset + nbytes})"
            )
        old = self.slot_payload(sc_id, slot)
        new = self._patched_content(block, locations.version, old, block_offset, nbytes)

        record = None
        if self._journal_active():
            record = self.lstors.primary.journal.append(
                block_name=block.name,
                sc_id=sc_id,
                slot=slot,
                old_data=old,
                new_data=new,
                nbytes=nbytes,
                now=self.sim.now,
                version=locations.version,
            )
            yield self.sim.timeout(self.lstors.primary.journal_write_time(nbytes))
        # The sub-block RMW: read the old range, rewrite it in place.
        self.create_block_file(locations)
        yield from self.fs.read_modify_write(block.name, block_offset, nbytes)
        yield from self.fs.sync()
        if self.raidp.enable_parity:
            tag = ("u", block.name, locations.version, block_offset)
            self.lstors.absorb_update(
                self.shard_index_of(sc_id), slot, old, new, tag=tag
            )
            yield self.sim.timeout(nbytes / LSTOR_WRITE_RATE)
        self._install_content(locations, new)
        if record is not None:
            if not self.lstors.primary.failed:
                self.lstors.primary.journal.mark_committed(record.record_id)
            yield from self._send_ack(locations, record)
        return None

    def _patched_content(
        self, block: Block, version: int, old: Payload, block_offset: int, nbytes: int
    ) -> Payload:
        """Deterministic post-update content of a partially updated block."""
        from repro.storage.payload import BytesPayload

        if isinstance(old, BytesPayload):
            patch = self.factory.make(f"{block.name}:u{version}", version, nbytes)
            assert isinstance(patch, BytesPayload)
            merged = old.mutable_copy()
            merged[block_offset:block_offset + nbytes] = patch.data
            return BytesPayload.adopt(merged)
        # Symbolic plane: sub-block granularity is not representable;
        # model the update as a whole-block version bump.
        return self.factory.make(block.name, version, block.size)

    # ------------------------------------------------------------------
    # Journal acknowledgment protocol (paper §3.4).
    # ------------------------------------------------------------------
    def _send_ack(self, locations: BlockLocations, record: JournalRecord) -> Generator:
        """Send our commit ack to the mirror; arm clearing of our record.

        Our record clears when the *mirror's* ack reaches us; the mirror
        symmetrically clears on receiving ours.
        """
        key = (locations.block.name, locations.version)
        partner = self._partner_of(locations)
        self._awaiting_ack[key] = record
        if partner is None or not partner._journal_active():
            # Nothing to wait for: a degraded single-replica write, or a
            # mirror that lost its Lstor -- it journals nothing, so it
            # will never acknowledge.  Acknowledged by decree; a live
            # mirror still gets our ack below, as any other would.
            self._clear_record(key)
            if partner is None:
                return None
        elif key in self._pending_acks:  # the partner's ack already arrived
            self._pending_acks.pop(key)
            self._clear_record(key)
        flow = self.switch.transfer(
            self.node.primary_nic, partner.node.primary_nic, ACK_SIZE
        )
        flow.add_callback(lambda _ev, p=partner, k=key: p._on_remote_ack(k))
        yield flow
        return None

    def _on_remote_ack(self, key: Tuple[str, int]) -> None:
        if key in self._awaiting_ack:
            self._clear_record(key)
        else:
            self._pending_acks[key] = self._pending_acks.get(key, 0) + 1

    def _clear_record(self, key: Tuple[str, int]) -> None:
        record = self._awaiting_ack.pop(key)
        if self.lstors.primary.failed:
            return  # the journal died with its Lstor; nothing left to clear
        journal = self.lstors.primary.journal
        journal.mark_acked(record.record_id)
        journal.clear(record.record_id, self.sim.now)

    def resolve_orphan_ack(self, block_name: str, version: int) -> bool:
        """Settle a journal record whose mirror died before acknowledging.

        Called by the client after a pipeline recovery: the surviving
        replica's record would otherwise wait forever for the dead
        partner's ack.  The write is durable here and the partner is
        gone, so the record is acknowledged-by-decree and cleared.
        Returns True when a record was actually resolved.
        """
        key = (block_name, version)
        record = self._awaiting_ack.get(key)
        if record is None:
            # The ack raced in (or the record was never ours to clear).
            self._pending_acks.pop(key, None)
            return False
        self._clear_record(key)
        return True

    def _partner_of(self, locations: BlockLocations) -> Optional["RaidpDataNode"]:
        if self.namenode is None:
            raise DfsError(f"{self.name} has no namenode attached")
        others = [n for n in locations.datanodes if n != self.name]
        if not others:
            return None
        partner = self.namenode.datanode(others[0])
        assert isinstance(partner, RaidpDataNode)
        return partner

    # ------------------------------------------------------------------
    # Remirror rollback and rejoin.
    # ------------------------------------------------------------------
    def purge_block(self, block_name: str) -> None:
        """Drop one replica and keep the local parity consistent.

        A remirror rolls a half-built copy back with this: the parity
        contribution of the dropped content is folded out (deferred-work
        accounting, charges no time) before the slot is unbound, so the
        surviving Lstor still matches the disk.
        """
        placement = self._slot_of.pop(block_name, None)
        if placement is not None:
            sc_id, slot = placement
            self._block_at.pop(placement, None)
            if (
                self.raidp.enable_parity
                and not self.lstors.primary.failed
                and sc_id in self.layout.superchunks
                and self.name in self.layout.superchunk(sc_id).disks
            ):
                old = self.content_of(block_name)
                if not old.is_zero():
                    self.lstors.absorb_update(
                        self.shard_index_of(sc_id),
                        slot,
                        old,
                        self.factory.zero(self.config.block_size),
                    )
        super().purge_block(block_name)

    def wipe_storage(self) -> None:
        """Replaced disk *and* replaced Lstor: empty media, zero parity,
        clean journal, no dangling ack state."""
        for block_name in list(self._contents):
            self.drop_content(block_name)
            if self.fs.exists(block_name):
                self.fs.delete(block_name)
        self._slot_of.clear()
        self._block_at.clear()
        self._prefilled.clear()
        self._overwritten.clear()
        self._pending_acks.clear()
        self._awaiting_ack.clear()
        self.lstors.reset(self.sim.now)

    # ------------------------------------------------------------------
    # Recovery-side accessors.
    # ------------------------------------------------------------------
    def superchunk_payloads(self, sc_id: int) -> Dict[int, Payload]:
        """slot -> payload for every occupied slot of a local superchunk."""
        prefilled = sc_id in self._prefilled
        result = {}
        for slot in range(self.map.slots_per_superchunk):
            name = self._block_at.get((sc_id, slot))
            if name is not None:
                result[slot] = self.content_of(name)
            elif prefilled and (sc_id, slot) not in self._overwritten:
                result[slot] = filler(self.factory, sc_id, slot, self.config.block_size)
        return result

    def install_recovered_block(
        self, locations: BlockLocations, payload: Payload
    ) -> None:
        """Adopt a re-replicated or reconstructed block (logical side)."""
        self.create_block_file(locations)
        sc_id, slot = self._placement_of(locations)
        old = self.slot_payload(sc_id, slot)
        if self.raidp.enable_parity:
            self.lstors.absorb_update(self.shard_index_of(sc_id), slot, old, payload)
        self._install_content(locations, payload)

    # ------------------------------------------------------------------
    # Journal roll-forward (paper §3.4).
    # ------------------------------------------------------------------
    def apply_replayed_write(self, record: JournalRecord, locations: BlockLocations) -> None:
        """Idempotently (re)apply one journaled write to this replica.

        Safe whether or not the original write reached this node's
        content store, disk, or parity: parity absorption dedups on the
        record's tag, and content installation is a plain overwrite.
        """
        sc_id, slot = self._placement_of(locations)
        old = self.slot_payload(sc_id, slot)
        self.create_block_file(locations)
        if self.raidp.enable_parity:
            already_applied = (
                self.version_of(record.block_name) >= record.version
            )
            effective_old = record.new_data if already_applied else old
            self.lstors.absorb_update(
                self.shard_index_of(sc_id),
                slot,
                effective_old,
                record.new_data,
                tag=record.tag,
            )
        self._install_content(locations, record.new_data)
        self._versions[record.block_name] = max(
            self.version_of(record.block_name), record.version
        )

    def roll_forward(self) -> Generator:
        """Replay every unresolved journal record after a crash.

        Re-applies the write locally (content, disk, parity), pushes the
        record to the mirror so its replica and parity catch up, and
        clears the record.  Returns the number of records replayed.
        """
        journal = self.lstors.primary.journal
        records = journal.replay_candidates()
        for record in records:
            locations = self._locations_of_record(record)
            if locations is not None:
                self.apply_replayed_write(record, locations)
                yield from self.fs.write(record.block_name, 0, record.nbytes)
                yield from self.fs.sync()
                partner = self._partner_of(locations)
                if partner is not None:
                    flow = self.switch.transfer(
                        self.node.primary_nic,
                        partner.node.primary_nic,
                        record.journal_bytes,
                    )
                    yield flow
                    partner.apply_replayed_write(record, locations)
                    yield from partner.fs.write(record.block_name, 0, record.nbytes)
                    yield from partner.fs.sync()
            if record.state is RecordState.APPENDED:
                journal.mark_committed(record.record_id)
            if record.state is RecordState.COMMITTED:
                journal.mark_acked(record.record_id)
            journal.clear(record.record_id, self.sim.now)
            self._awaiting_ack.pop((record.block_name, record.version), None)
        return len(records)

    def _locations_of_record(self, record: JournalRecord) -> Optional[BlockLocations]:
        if self.namenode is None:
            raise DfsError(f"{self.name} has no namenode attached")
        for locations in self.namenode.all_blocks():
            if locations.block.name == record.block_name:
                return locations
        return None  # block deleted since the record was written
