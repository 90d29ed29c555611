"""Failure recovery: re-replication planning and Lstor reconstruction.

Covers the paper's Section 3.3 and the Section 6.4 evaluation.  One body
recovers any set of dead disks, planned per superchunk from the disks
outside the set that still hold it (:meth:`Layout.holds`):

**A healthy holder survives: remirror.**  The superchunk is matched with
a *receiver* disk such that 1-sharing is preserved, no receiver takes
more than one superchunk (parallelism), mutual-exchange violations (the
paper's D0<->D2 example) are excluded, and disk load is balanced: a
min-cost assignment on the dynamic Hungarian solver -- the formulation
the paper sketches in Fig. 6.  A holder that is itself failing leaves the
superchunk to that disk's own recovery.

**No holder survives: decode.**  After two failures at most one
superchunk is lost, and either dead disk's Lstor rebuilds it: on a
recovery node, XOR that disk's parity with the surviving mirrors of its
other superchunks.  The timed model matches §6.4: one thread per source
(14 superchunk threads + 1 parity thread on a 16-node cluster), each
looping request-chunk / lock / XOR, under either a whole-superchunk lock
or a byte-range lock, at a configurable chunk size and over a
configurable NIC -- the axes of Table 2.  The content plane is verified
bit-exactly through the Lstor.  A superchunk no dead holder's chain can
decode is past the design point and is recorded as lost.

A RAID-6 full-array rebuild simulator provides Table 2's baseline rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.journal import RecordState
from repro.core.node import RaidpDataNode
from repro.errors import DataLossError, DfsError, MatchingError, RecoveryError, ReproError
from repro.hdfs.block import BlockLocations
from repro.hdfs.namenode import healthy_datanode
from repro.matching.hungarian import DynamicHungarian
from repro.sim.disk import Disk, DiskGeometry, DiskRun
from repro.sim.engine import Simulator
from repro.sim.network import Nic, Stage, Switch, Transfer
from repro.sim.resources import ByteRangeLock, Lock
from repro.storage.payload import Payload, XorAccumulator


# The recovery node's measured costs (§6.4).
#: XOR rate when the working chunk fits the last-level cache.
XOR_RATE_CACHED = 0.78 * units.GB
#: XOR rate when chunks stream from DRAM (large chunks miss cache).
XOR_RATE_STREAMING = 0.65 * units.GB
#: Fixed cost of taking the reconstruction lock once.
LOCK_OVERHEAD = 1.3 * units.MSEC
#: Share of a streaming (cache-missing) chunk's XOR that contends on the
#: receiver's DRAM bus under byte-range locking; hardware prefetch
#: overlaps the remainder with other threads.
STREAMING_BUS_SHARE = 0.75
#: Chunks at or below this size XOR at the cached rate.
CACHE_THRESHOLD = 8 * units.MiB
#: How often a remirror looks again for a rewrite still landing on its
#: sender (:meth:`RecoveryManager._remirror_superchunk`).
LANDING_POLL = 1 * units.MSEC


def chunk_xor_rate(chunk_size: int, cache_threshold: int = CACHE_THRESHOLD) -> float:
    """Per-thread XOR rate at ``chunk_size``: chunks at or below
    ``cache_threshold`` XOR at the cached rate."""
    if chunk_size <= cache_threshold:
        return XOR_RATE_CACHED
    return XOR_RATE_STREAMING


@dataclass(frozen=True)
class RecoveryOptions:
    """Tunable axes of the recovery experiments (Table 2)."""

    chunk_size: int = 4 * units.MiB
    lock_mode: str = "byte_range"  # or "superchunk"
    nic_index: int = 0  # 0 = 10 Gbps NIC, 1 = 1 Gbps NIC
    cache_threshold: int = CACHE_THRESHOLD
    #: Rebuild the lost superchunk's two halves concurrently on two
    #: recovery nodes, one half per failed disk's Lstor (§3.3: "the two
    #: Lstors and sets of mirroring superchunks can be used to rebuild
    #: the lost superchunk in parallel, with each set used to rebuild
    #: half").  Falls back to one source when only one dead holder's
    #: Lstor and chain survive.
    parallel_halves: bool = False

    def __post_init__(self) -> None:
        if self.lock_mode not in ("byte_range", "superchunk"):
            raise ValueError(f"unknown lock mode {self.lock_mode!r}")
        if self.chunk_size <= 0:
            raise ValueError("chunk size must be positive")

    @property
    def xor_rate(self) -> float:
        """Effective per-thread XOR rate at the configured chunk size."""
        return chunk_xor_rate(self.chunk_size, self.cache_threshold)


@dataclass
class RecoveryReport:
    """What a recovery run did and how long it took."""

    duration: float = 0.0
    remirrored: List[Tuple[int, str, str]] = field(default_factory=list)
    #: Superchunks decoded through an Lstor, in the order they were.
    reconstructed: List[int] = field(default_factory=list)
    bytes_reconstructed: int = 0
    plan_cost: float = 0.0
    #: The dead set this recovery covered -- lets auditors match reports
    #: to failures.
    failed_disks: Tuple[str, ...] = ()
    #: ((sc_id, sender, receiver), error) per remirror that failed --
    #: e.g. a sender dying mid-copy (a stacked failure).  The rest of
    #: the recovery still completes; the superchunk's metadata rolls
    #: back to its pre-remirror state.
    failed_remirrors: List[Tuple[Tuple[int, str, str], ReproError]] = field(
        default_factory=list
    )
    #: (sc_id, error) per superchunk whose reconstruction was impossible
    #: -- more overlapping failures than the two the design tolerates.
    #: Recorded rather than raised so the recovery can still salvage the
    #: singly-lost superchunks around it; :meth:`RecoveryManager.recover`
    #: raises the first once the body is done.
    lost_superchunks: List[Tuple[int, ReproError]] = field(default_factory=list)


class RecoveryManager:
    """Drives recovery on a :class:`RaidpCluster`."""

    def __init__(self, dfs: RaidpCluster) -> None:
        self.dfs = dfs
        self.sim = dfs.sim

    # ==================================================================
    # Planning (pure, no simulated time).
    # ==================================================================
    def plan_remirror(self, failed: str) -> List[Tuple[int, str, str]]:
        """Match ``failed``'s orphan superchunks to receivers:
        (sc_id, sender, receiver).

        An orphan names ``failed`` and is held by exactly one disk, its
        sender.  Must be called *after* the failed disk was removed from
        the layout.  Raises :class:`RecoveryError` when no legal full
        assignment exists.
        """
        layout = self.dfs.layout
        senders = []
        for sc in layout.superchunks.values():
            if failed not in sc.disks:
                continue
            holders = [d for d in (sc.disk_a, sc.disk_b) if layout.holds(d, sc.sc_id)]
            if len(holders) != 1:
                continue  # still mirrored, rebuilt elsewhere, or lost
            sender = holders[0]
            if not healthy_datanode(self.dfs.datanode_by_name(sender)):
                # The survivor is failing too: a copy from it cannot be
                # read.  Its own recovery decodes the superchunk.
                continue
            senders.append((sc.sc_id, sender))
        if not senders:
            return []
        # A receiver must be healthy in fact, not just in metadata: a
        # sweeping failure (whole server down) may not have marked every
        # sibling disk dead yet.
        receivers = [
            dn.name
            for dn in self.dfs.datanodes
            if healthy_datanode(dn) and dn.name != failed
        ]
        return self._plan_hungarian(senders, receivers)

    def _legal(self, sender: str, receiver: str) -> bool:
        """Can ``receiver`` adopt a superchunk whose survivor is ``sender``?

        Like a fresh pairing -- distinct disks, no existing shared
        superchunk, different failure domains -- except that only the
        *receiver* needs free capacity: the sender already holds its
        copy and gains nothing from the transfer.
        """
        layout = self.dfs.layout
        if sender == receiver:
            return False
        if sender not in layout.disks or receiver not in layout.disks:
            return False
        if layout.same_domain(sender, receiver):
            return False
        if layout.shared(sender, receiver) is not None:
            return False
        return (
            len(layout.superchunks_of(receiver)) < layout.max_superchunks()
        )

    def _load(self, disk: str) -> int:
        return self.dfs.map.load_of_disk(disk)

    def _plan_hungarian(
        self, senders: List[Tuple[int, str]], receivers: List[str]
    ) -> List[Tuple[int, str, str]]:
        """Min-cost assignment with mutual-exchange elimination.

        Costs are receiver loads, so lightly-loaded disks attract
        superchunks.  After each solve, any mutual exchange (sender A ->
        receiver B while sender B -> receiver A, which would create the
        same shared pair twice or pair two senders) has its costlier edge
        removed and the problem re-solved on the warm-started dynamic
        solver -- the paper's Mills-Tettey use case.
        """
        cost: List[List[Optional[float]]] = []
        for _sc_id, sender in senders:
            row = [
                float(self._load(receiver)) if self._legal(sender, receiver) else None
                for receiver in receivers
            ]
            cost.append(row)
        solver = DynamicHungarian(cost)
        for _round in range(len(senders) * len(receivers) + 1):
            try:
                assignment, total = solver.solve()
            except MatchingError as err:
                raise RecoveryError(f"hungarian planner: {err}") from err
            conflict = self._find_exchange_conflict(assignment, senders, receivers)
            if conflict is None:
                plan = [
                    (senders[row][0], senders[row][1], receivers[col])
                    for row, col in sorted(assignment.items())
                ]
                self._last_plan_cost = total
                return plan
            solver.remove_edge(*conflict)
        raise RecoveryError("hungarian planner failed to converge")

    def _find_exchange_conflict(
        self,
        assignment: Dict[int, int],
        senders: List[Tuple[int, str]],
        receivers: List[str],
    ) -> Optional[Tuple[int, int]]:
        """Detect A->B while B->A; returns the costlier edge to remove."""
        chosen = {
            senders[row][1]: (row, receivers[col]) for row, col in assignment.items()
        }
        for sender, (row, receiver) in chosen.items():
            back = chosen.get(receiver)
            if back is not None and back[1] == sender:
                other_row = back[0]
                # Remove the edge whose receiver carries more load.
                if self._load(receiver) >= self._load(sender):
                    return (row, assignment[row])
                return (other_row, assignment[other_row])
        return None

    # ==================================================================
    # Recovery of a dead set.
    # ==================================================================
    def recover(
        self,
        dead: Sequence[str],
        options: Optional[RecoveryOptions] = None,
        reconstruct_only: bool = False,
    ) -> RecoveryReport:
        """Recover ``dead``, driving the simulation itself; raises the
        first superchunk loss the body recorded once it is done.

        Use :meth:`failure_body` instead when calling from inside a
        running simulation process (e.g. the cluster monitor).
        """
        report = self.sim.run_process(
            self.failure_body(dead, options, reconstruct_only),
            name=f"recover:{'+'.join(dead)}",
        )
        if report.lost_superchunks:
            raise report.lost_superchunks[0][1]
        return report

    def failure_body(
        self,
        dead: Sequence[str],
        options: Optional[RecoveryOptions] = None,
        reconstruct_only: bool = False,
    ) -> Generator:
        """Process body: recover every superchunk a ``dead`` disk holds;
        returns the report.

        The superchunks no disk outside ``dead`` still holds are decoded
        first, in id order (:meth:`_decode`); one that cannot be is
        recorded in ``report.lost_superchunks`` and the recovery goes
        on.  Then each dead disk's orphans are remirrored
        (:meth:`plan_remirror`).  ``reconstruct_only`` stops after the
        decodes and installs nothing: §6.4's timing experiment measures
        reconstruction alone, and a maximally-dense layout has no legal
        pair left to install on.
        """
        options = options or RecoveryOptions()
        dfs = self.dfs
        layout = dfs.layout
        report = RecoveryReport(failed_disks=tuple(dead))
        started = self.sim.now
        trace = self.sim.trace
        # A dead disk an earlier recovery already evicted holds nothing:
        # only its liveness changes.
        present = [name for name in dead if layout.has_disk(name)]
        # Divert writes away from the dead disks' superchunks for the
        # whole recovery window (paper §3.4).  Sorted: freeze/unfreeze
        # must not run in set-hash order (RDP002) -- a shared superchunk
        # appears in both disks' lists, and ordered traversal keeps every
        # freeze-window trace and fingerprint bitwise reproducible.
        frozen = sorted(
            {
                sc_id
                for name in present
                for sc_id in layout.superchunks_of(name)
            }
        )
        # Plan the decodes before anything moves.
        decodes = []
        for sc_id in frozen:
            sc = layout.superchunk(sc_id)
            if not any(
                layout.holds(disk, sc_id)
                for disk in (sc.disk_a, sc.disk_b)
                if disk not in dead
            ):
                decodes.append((sc_id, self._decoders(sc_id, dead)))
        for sc_id in frozen:
            dfs.map.freeze(sc_id)
        try:
            for name in dead:
                dfs.namenode.mark_datanode_dead(name)
            for sc_id, decoders in decodes:
                try:
                    yield from self._decode(
                        sc_id, decoders, dead, options, report, reconstruct_only
                    )
                except ReproError as exc:
                    # Past the design point, or no healthy receiver is
                    # left: record the loss and still salvage everything
                    # singly lost.
                    report.lost_superchunks.append((sc_id, exc))
            for name in present:
                if layout.has_disk(name):  # an install may have removed it
                    layout.remove_disk(name)
            if not reconstruct_only:
                for name in present:
                    yield from self._remirror_orphans(name, options, report)
        finally:
            for sc_id in frozen:
                dfs.map.unfreeze(sc_id)
        report.duration = self.sim.now - started
        if trace.enabled:
            trace.complete(
                "recovery", "recover", started, self.sim.now,
                dead=list(dead), reconstructed=list(report.reconstructed),
                remirrored=len(report.remirrored),
            )
        return report

    def _remirror_orphans(
        self, failed: str, options: RecoveryOptions, report: RecoveryReport
    ) -> Generator:
        """Plan the re-replication of ``failed``'s orphan superchunks and
        run it into ``report``, one transfer process per superchunk.
        ``failed`` must already be out of the layout."""
        self._last_plan_cost = 0.0
        plan = self.plan_remirror(failed)
        report.plan_cost += self._last_plan_cost
        trace = self.sim.trace
        if trace.enabled:
            # Planning is pure (charges no simulated time): a
            # zero-duration phase span keeps it in the breakdown.
            trace.complete(
                "recovery", "plan", self.sim.now, self.sim.now,
                failed=failed, moves=len(plan), cost=self._last_plan_cost,
            )
        transfers = [
            self.sim.process(
                self._remirror_superchunk(sc_id, sender, receiver, options),
                name=f"remirror:sc{sc_id}",
            )
            for sc_id, sender, receiver in plan
        ]
        # Await each transfer individually: one superchunk's sender dying
        # mid-copy (a stacked failure) must not abort the others.
        for entry, proc in zip(plan, transfers):
            try:
                yield proc
            except ReproError as exc:
                report.failed_remirrors.append((entry, exc))
            else:
                report.remirrored.append(entry)

    def _remirror_superchunk(
        self, sc_id: int, sender: str, receiver: str, options: RecoveryOptions
    ) -> Generator:
        """Copy one superchunk's live blocks sender -> receiver."""
        dfs = self.dfs
        trace = self.sim.trace
        t0 = self.sim.now
        src = dfs.datanode_by_name(sender)
        dst = dfs.datanode_by_name(receiver)
        blocks = dfs.map.blocks_in(sc_id)
        previous = dfs.layout.superchunk(sc_id)
        updated = dfs.layout.remirror(sc_id, receiver)
        dfs.map.register_superchunk(sc_id)
        installed: List[BlockLocations] = []
        try:
            for slot in sorted(blocks):
                block_name = blocks[slot]
                locations = dfs.namenode.locate_block_by_name(block_name)
                if locations is None:
                    continue  # a preallocation filler, not a live block
                # Read at the sender, stream, write at the receiver.
                read = self.sim.process(
                    src.fs.read(block_name, 0, locations.block.size)
                )
                flow = dfs.switch.transfer(
                    src.node.nics[options.nic_index],
                    dst.node.nics[options.nic_index],
                    locations.block.size,
                )
                yield self.sim.all_of([read, flow])
                # A rewrite admitted before the receiver was published
                # targets the sender alone: wait for it to land there, so
                # the copy carries the version ``locations`` names and the
                # sender's journal record awaits no ack from the receiver.
                while src.version_of(block_name) < locations.version:
                    if sender not in locations.datanodes or not healthy_datanode(src):
                        raise DfsError(
                            f"{sender} lost a rewrite of {block_name} mid-copy"
                        )
                    yield self.sim.timeout(LANDING_POLL)
                # Capture the content and publish the new replica in the
                # same instant: a rewrite admitted after this point
                # already targets the receiver, so the copy cannot go
                # stale.
                payload = src.content_of(block_name)
                dst.install_recovered_block(locations, payload)
                if receiver not in locations.datanodes:
                    locations.datanodes.append(receiver)
                installed.append(locations)
                yield from dst.fs.write(locations.block.name, 0, locations.block.size)
        except ReproError:
            # A stacked failure killed the sender (or receiver) mid-copy.
            # Roll the half-built replica back -- purge unwinds both the
            # content and the receiver's absorbed parity -- so metadata
            # never advertises a copy that does not exist.
            for locations in installed:
                if receiver in locations.datanodes:
                    locations.datanodes.remove(receiver)
                dst.purge_block(locations.block.name)
            dfs.layout.restore_superchunk(previous, receiver)
            if trace.enabled:
                trace.complete(
                    "recovery", "remirror", t0, self.sim.now,
                    sc=sc_id, sender=sender, receiver=receiver,
                    blocks=len(installed), aborted=True,
                )
            raise
        if trace.enabled:
            trace.complete(
                "recovery", "remirror", t0, self.sim.now,
                sc=sc_id, sender=sender, receiver=receiver,
                blocks=len(installed),
            )
        return None

    # ==================================================================
    # Decoding a superchunk no survivor holds (Table 2's RAIDP rows).
    # ==================================================================
    def _decoders(
        self, sc_id: int, dead: Sequence[str]
    ) -> List[Tuple[RaidpDataNode, Dict[int, str]]]:
        """The dead holders of ``sc_id`` whose Lstor can rebuild it, in
        name order, each with its chain: the disk holding each of its
        other superchunks.  A holder qualifies when its Lstor lives and
        every chain disk is outside ``dead``, holds its copy and is
        healthy -- a third overlapping failure breaks one side's chain,
        and the other side still decodes."""
        dfs = self.dfs
        layout = dfs.layout
        decoders = []
        for name in sorted(dead):
            datanode = dfs.datanode_by_name(name)
            if not layout.holds(name, sc_id) or datanode.lstors.primary.failed:
                continue
            chain = {
                other: layout.superchunk(other).mirror_of(name)
                for other in layout.superchunks_of(name)
                if other != sc_id
            }
            if all(
                holder not in dead
                and layout.holds(holder, other)
                and healthy_datanode(dfs.datanode_by_name(holder))
                for other, holder in chain.items()
            ):
                decoders.append((datanode, chain))
        return decoders

    def _decode(
        self,
        sc_id: int,
        decoders: List[Tuple[RaidpDataNode, Dict[int, str]]],
        dead: Sequence[str],
        options: RecoveryOptions,
        report: RecoveryReport,
        reconstruct_only: bool,
    ) -> Generator:
        """Rebuild ``sc_id`` through its first decoder (the first two,
        one half each, with ``parallel_halves``) and, unless
        ``reconstruct_only``, re-home it on a fresh legal pair."""
        if not decoders:
            raise DataLossError(
                f"superchunk {sc_id} is lost: no dead holder has a live "
                "Lstor and a healthy chain"
            )
        receiver_name = self._pick_recovery_node(exclude=set(dead))
        if options.parallel_halves and len(decoders) > 1:
            rebuilt = yield from self._reconstruct_halves(
                sc_id, decoders[0], decoders[1], receiver_name, dead, options
            )
        else:
            source, chain = decoders[0]
            rebuilt = yield from self._reconstruct_superchunk(
                sc_id, source, chain, receiver_name, options
            )
        report.reconstructed.append(sc_id)
        report.bytes_reconstructed += len(rebuilt) * self.dfs.config.block_size
        if not reconstruct_only:
            self._install_reconstruction(sc_id, rebuilt, receiver_name, dead)
            trace = self.sim.trace
            if trace.enabled:
                trace.complete(
                    "recovery", "install", self.sim.now, self.sim.now,
                    sc=sc_id, receiver=receiver_name,
                )

    def _pick_recovery_node(self, exclude: set) -> str:
        layout = self.dfs.layout
        for dn in self.dfs.datanodes:
            if dn.name in exclude or dn.name not in layout.disks:
                continue
            if healthy_datanode(dn):
                return dn.name
        raise RecoveryError("no live node available for reconstruction")

    def _reconstruct_superchunk(
        self,
        shared_sc: int,
        lost_source: RaidpDataNode,
        mirrors: Dict[int, str],
        receiver_name: str,
        options: RecoveryOptions,
        byte_range: Optional[Tuple[int, int]] = None,
        slots: Optional[range] = None,
    ) -> Generator:
        """Process body: threads pull chunks, lock, and XOR.

        ``byte_range``/``slots`` restrict the work to part of the
        superchunk (the parallel-halves mode); default is the whole
        thing.  Returns slot -> payload of the rebuilt superchunk
        (logical plane, computed through the Lstor for bit-exactness).
        """
        dfs = self.dfs
        trace = self.sim.trace
        t0 = self.sim.now
        receiver = dfs.datanode_by_name(receiver_name)
        full_size = dfs.layout.spec.superchunk_size
        byte_lo, byte_hi = byte_range if byte_range is not None else (0, full_size)
        sc_size = byte_hi - byte_lo
        block_size = dfs.config.block_size

        # --- logical plane: XOR parity with surviving mirror contents.
        surviving: Dict[int, Dict[int, Payload]] = {}
        for sc_id, mirror_name in mirrors.items():
            mirror = dfs.datanode_by_name(mirror_name)
            if not healthy_datanode(mirror):
                raise DataLossError(
                    f"mirror {mirror_name} of superchunk {sc_id} is dead too"
                )
            surviving[sc_id] = mirror.superchunk_payloads(sc_id)
        # Journal replay (crash consistency): a write that was in flight
        # when the source disk died may have landed on the surviving
        # mirror without its delta ever being absorbed into the source's
        # parity.  The source's Lstor survives -- RAIDP's premise -- and
        # every un-absorbed write still sits in its journal as an
        # APPENDED record whose ``old_data`` is exactly the content the
        # parity covers; substituting it for the mirror's newer copy
        # keeps the XOR chain consistent.
        replayed = set()
        roll_forward: Dict[int, Payload] = {}
        for record in lost_source.lstors.primary.journal.replay_candidates():
            if record.state is not RecordState.APPENDED:
                continue
            key = (record.sc_id, record.slot)
            if key in replayed:
                continue
            replayed.add(key)
            payloads = surviving.get(record.sc_id)
            if payloads is not None:
                payloads[record.slot] = record.old_data
            elif record.sc_id == shared_sc:
                # The record is *for* the superchunk being reconstructed:
                # the write may have completed on the other (also dead)
                # replica, in which case the NameNode kept the new
                # version and the journal's new_data is the only
                # surviving copy.  If the client rolled the version back
                # (no replica survived the write), the parity's old view
                # is already correct.
                locations = dfs.namenode.locate_block_by_name(record.block_name)
                if locations is not None and locations.version == record.version:
                    roll_forward[record.slot] = record.new_data
        if slots is None:
            slots = range(dfs.map.slots_per_superchunk)
        rebuilt: Dict[int, Payload] = {}
        for slot in slots:
            blocks_at_slot = {
                lost_source.shard_index_of(sc_id): payloads[slot]
                for sc_id, payloads in surviving.items()
                if slot in payloads
            }
            missing = lost_source.shard_index_of(shared_sc)
            chain = XorAccumulator(lost_source.lstors.parity_block(slot))
            for payload in blocks_at_slot.values():
                chain.add(payload)
            accum = chain.result()
            if not accum.is_zero():
                rebuilt[slot] = accum
        for slot, payload in roll_forward.items():
            if slot in slots:
                rebuilt[slot] = payload

        # --- timed plane: one puller thread per source + one for parity.
        pullers = _Pullers(dfs, receiver, options, byte_lo, byte_hi)

        def writer() -> Generator:
            # Move assembled block files to the receiver's disk.
            written = 0
            while written < sc_size:
                run = min(block_size, sc_size - written)
                yield from receiver.disk.write(
                    receiver.disk.geometry.capacity - full_size + byte_lo + written,
                    run,
                )
                written += run
            return None

        threads = [
            self.sim.process(
                pullers.puller(dfs.datanode_by_name(mirror_name), sc_id),
                name=f"pull:sc{sc_id}",
            )
            for sc_id, mirror_name in mirrors.items()
        ]
        threads.append(
            self.sim.process(pullers.puller(lost_source, None), name="pull:parity")
        )
        yield self.sim.all_of(threads)
        yield self.sim.process(writer(), name="assemble")
        if trace.enabled:
            # ``bound``: what set the pullers' pace over the longest
            # constant-rate stretch of any body (absent when every
            # stream was a single chunk).
            bound = {"bound": pullers.bound()} if pullers.bodies else {}
            trace.complete(
                "recovery", "reconstruct", t0, self.sim.now,
                sc=shared_sc, source=lost_source.name,
                receiver=receiver_name, bytes=sc_size,
                pullers=len(threads), **bound,
            )
        return rebuilt

    def _reconstruct_halves(
        self,
        shared_sc: int,
        half_a: Tuple[RaidpDataNode, Dict[int, str]],
        half_b: Tuple[RaidpDataNode, Dict[int, str]],
        receiver_name: str,
        dead: Sequence[str],
        options: RecoveryOptions,
    ) -> Generator:
        """Rebuild the two halves concurrently, one per dead Lstor.

        Half A comes from ``half_a``'s parity and chain; half B
        symmetrically from ``half_b`` -- demonstrating the §3.3
        flexibility that either Lstor can serve any part of the
        superchunk.  Each half streams into its own recovery node, so
        the receiver NIC bottleneck halves too.
        """
        dfs = self.dfs
        slots_total = dfs.map.slots_per_superchunk
        if slots_total < 2:
            result = yield from self._reconstruct_superchunk(
                shared_sc, *half_a, receiver_name, options
            )
            return result
        block_size = dfs.config.block_size
        mid_slot = slots_total // 2
        mid_byte = mid_slot * block_size
        full_size = dfs.layout.spec.superchunk_size
        receiver_b = self._pick_recovery_node(exclude={*dead, receiver_name})
        proc_a = self.sim.process(
            self._reconstruct_superchunk(
                shared_sc,
                *half_a,
                receiver_name,
                options,
                byte_range=(0, mid_byte),
                slots=range(0, mid_slot),
            ),
            name="rebuild:half-a",
        )
        proc_b = self.sim.process(
            self._reconstruct_superchunk(
                shared_sc,
                *half_b,
                receiver_b,
                options,
                byte_range=(mid_byte, full_size),
                slots=range(mid_slot, slots_total),
            ),
            name="rebuild:half-b",
        )
        results = yield self.sim.all_of([proc_a, proc_b])
        rebuilt: Dict[int, Payload] = {}
        for partial in results:
            rebuilt.update(partial)
        return rebuilt

    def _install_reconstruction(
        self,
        sc_id: int,
        rebuilt: Dict[int, Payload],
        receiver_name: str,
        dead: Sequence[str],
    ) -> None:
        """Re-home the reconstructed superchunk and update all metadata."""
        dfs = self.dfs
        partner_name = self._pick_partner_for(receiver_name, set(dead))
        # Forget the dead homes first so rehome sees a fully-orphaned chunk.
        for name in dead:
            if dfs.layout.has_disk(name):
                dfs.layout.remove_disk(name)
        dfs.layout.rehome(sc_id, receiver_name, partner_name)
        dfs.map.register_superchunk(sc_id)
        blocks = dfs.map.blocks_in(sc_id)
        for slot, block_name in sorted(blocks.items()):
            locations = dfs.namenode.locate_block_by_name(block_name)
            if locations is None:
                continue
            payload = rebuilt.get(slot)
            if payload is None:
                raise DataLossError(
                    f"reconstruction hole: block {block_name} at slot {slot}"
                )
            for home in (receiver_name, partner_name):
                datanode = dfs.datanode_by_name(home)
                datanode.install_recovered_block(locations, payload)
                if home not in locations.datanodes:
                    locations.datanodes.append(home)

    def _pick_partner_for(self, receiver: str, exclude: set) -> str:
        layout = self.dfs.layout
        for dn in self.dfs.datanodes:
            name = dn.name
            if name == receiver or name in exclude:
                continue
            if not healthy_datanode(dn):
                continue
            if name not in layout.disks:
                continue  # rejoined-from-wipe disks re-enter via add_disk
            if layout.same_domain(receiver, name):
                continue
            if layout.shared(receiver, name) is not None:
                continue
            if len(layout.superchunks_of(name)) >= layout.max_superchunks():
                continue
            return name
        raise RecoveryError(
            f"no legal mirror partner for reconstructed superchunk on {receiver}"
        )


class _Pullers:
    """The timed plane of one reconstruction (§6.4): a puller thread per
    source -- each surviving mirror superchunk and the Lstor parity --
    streams into the receiver, and every chunk is XORed into the staging
    buffer under the configured lock.

    A stream's first chunk runs chunk by chunk, because it carries the
    transient: the first wave of arrivals and the first lock convoy.
    The rest of the stream is one :class:`~repro.sim.network.Transfer`
    body whose stage -- the XOR behind the shared lock -- overlaps the
    other streams (DESIGN.md §4c).  ``tests/oracles.py`` keeps the chunk
    loop over the whole stream as the differential oracle.
    """

    def __init__(
        self,
        dfs: RaidpCluster,
        receiver: RaidpDataNode,
        options: RecoveryOptions,
        byte_lo: int,
        byte_hi: int,
    ) -> None:
        sim = self.sim = dfs.sim
        self.switch = dfs.switch
        self.options = options
        self.rx_nic = receiver.node.nics[options.nic_index]
        self.byte_lo = byte_lo
        self.byte_hi = byte_hi
        self.lock_whole = Lock(sim, name="reconstruct")
        self.lock_ranges = ByteRangeLock(sim, name="reconstruct")
        # Large chunks miss the last-level cache, so concurrent XOR
        # threads contend on the receiver's DRAM bandwidth: one streaming
        # XOR at a time.  Cache-resident (small) chunks XOR in parallel.
        self.memory_bus = Lock(sim, name="xor-bus")
        self.streaming = options.chunk_size > options.cache_threshold
        # The bodies' view of the same stage: each chunk costs its puller
        # the lock overhead plus its XOR, and the streams share what the
        # superchunk lock (or, for streaming chunks, the bus) can pass.
        chunk = options.chunk_size
        xor_s = chunk / options.xor_rate
        self.stage_s = LOCK_OVERHEAD + xor_s
        if options.lock_mode == "superchunk":
            self.stage = Stage("lock", chunk / self.stage_s)
        elif self.streaming:
            self.stage = Stage("bus", chunk / (STREAMING_BUS_SHARE * xor_s))
        else:
            self.stage = Stage("range")  # disjoint ranges XOR in parallel
        self.bodies: List[Transfer] = []

    def bound(self) -> Optional[str]:
        """The constraint over the longest constant-rate segment of any
        body (``nic``, ``lock``, ``bus``, ``disk`` or ``own``)."""
        return max(self.bodies, key=lambda body: body.longest).bound

    def puller(self, source_dn: RaidpDataNode, source_sc: Optional[int]) -> Generator:
        """Stream one source (a mirror superchunk, or the parity when
        ``source_sc`` is None) into the receiver: its first chunk, then
        the rest as one body."""
        sim, options, switch, stage = self.sim, self.options, self.switch, self.stage
        lock_whole, lock_ranges = self.lock_whole, self.lock_ranges
        memory_bus = self.memory_bus
        src_nic = source_dn.node.nics[options.nic_index]
        disk = source_dn.disk if source_sc is not None else None
        offset = self.byte_lo
        start = offset  # on the source disk
        if source_sc is not None:
            start += source_dn.superchunk_base(source_sc)
        size = self.byte_hi - offset
        run = min(options.chunk_size, size)
        ops = []
        if disk is not None:
            ops.append(disk.start_io("read", start, run))
        ops.append(switch.transfer(src_nic, self.rx_nic, run))
        yield sim.all_of(ops)
        # XOR the received chunk into the staging buffer under the
        # configured correctness lock.  A superchunk-wide lock serializes
        # everything by itself; byte-range XORs run in parallel except
        # for the share of a streaming chunk that contends on DRAM
        # bandwidth (prefetch hides the rest).  Holding the superchunk
        # lock or the bus holds the bodies' stage too.
        xor_time = run / options.xor_rate
        if options.lock_mode == "superchunk":
            grant = yield lock_whole.request()
            try:
                switch.hold_stage(stage, True)
                yield sim.timeout(LOCK_OVERHEAD + xor_time)
            finally:
                switch.hold_stage(stage, False)
                lock_whole.release(grant)
        else:
            grant = yield lock_ranges.acquire(offset, offset + run)
            try:
                bus_share = STREAMING_BUS_SHARE if self.streaming else 0.0
                yield sim.timeout(LOCK_OVERHEAD + (1.0 - bus_share) * xor_time)
                if bus_share > 0.0:
                    bus_grant = yield memory_bus.request()
                    try:
                        switch.hold_stage(stage, True)
                        yield sim.timeout(bus_share * xor_time)
                    finally:
                        switch.hold_stage(stage, False)
                        memory_bus.release(bus_grant)
            finally:
                lock_ranges.release(grant)
        if run < size:
            body = switch.stream(
                src_nic, self.rx_nic, size - run, options.chunk_size, self.stage_s,
                disk=DiskRun(disk, "read", start + run) if disk is not None else None,
                shared=stage,
            )
            self.bodies.append(body)
            yield body.done
        return None


# ======================================================================
# RAID-6 rebuild baseline (Table 2, bottom rows).
# ======================================================================
class _Raid6Rig:
    """Hardware for the distributed RAID-6 rebuild: one rebuild master,
    two replacement disks, ``surviving_disks`` survivors on one switch.

    Every stream -- a survivor's gather, a replacement's writeback --
    runs its first chunk chunk by chunk and the rest as one
    :class:`~repro.sim.network.Transfer` body.  Its stage (the decode)
    is private: the streams start together and stay in lock step, so it
    adds serially to every chunk while the master's NIC idles (DESIGN.md
    §4c).  ``tests/oracles.py`` keeps the chunk loops as the oracle.

    The rebuild runs gather+decode, then writeback, in one simulator:
    :func:`simulate_raid6_rebuild` is one Table 2 row.
    """

    def __init__(
        self,
        surviving_disks: int,
        chunk_size: int,
        nic_rate: float,
    ) -> None:
        self.chunk_size = chunk_size
        self.sim = Simulator()
        geometry = DiskGeometry()
        self.switch = Switch(self.sim)
        self.master = self.switch.attach(Nic("master", nic_rate))
        self.replacements = [
            self.switch.attach(Nic(f"replacement{i}", nic_rate)) for i in range(2)
        ]
        self.sources = [
            self.switch.attach(Nic(f"src{i}", nic_rate))
            for i in range(surviving_disks)
        ]
        self.source_disks = [
            Disk(self.sim, geometry, name=f"sd{i}") for i in range(surviving_disks)
        ]
        self.replacement_disks = [
            Disk(self.sim, geometry, name=f"rd{i}") for i in range(2)
        ]

    def source_stream(self, index: int, data_per_disk: int, xor_rate: float) -> Generator:
        # Each survivor disk has exactly this stream as its client, so
        # its first read finds the queue idle: start_io's single
        # schedule entry.
        chunk_size = self.chunk_size
        disk, src = self.source_disks[index], self.sources[index]
        run = min(chunk_size, data_per_disk)
        read = disk.start_io("read", 0, run)
        flow = self.switch.transfer(src, self.master, run)
        yield self.sim.all_of([read, flow])
        # Decode on the master (serialized per received chunk).
        yield self.sim.timeout(run / xor_rate)
        if run < data_per_disk:
            body = self.switch.stream(
                src, self.master, data_per_disk - run, chunk_size,
                chunk_size / xor_rate, disk=DiskRun(disk, "read", run),
            )
            yield body.done
        return None

    def writeback(self, index: int, data_per_disk: int) -> Generator:
        # Mirror of source_stream: each replacement disk is private to
        # its writeback stream, and a written chunk has no stage.
        chunk_size = self.chunk_size
        disk, dst = self.replacement_disks[index], self.replacements[index]
        run = min(chunk_size, data_per_disk)
        flow = self.switch.transfer(self.master, dst, run)
        write = disk.start_io("write", 0, run)
        yield self.sim.all_of([flow, write])
        if run < data_per_disk:
            body = self.switch.stream(
                self.master, dst, data_per_disk - run, chunk_size, 0.0,
                disk=DiskRun(disk, "write", run),
            )
            yield body.done
        return None

    def read_all(self, data_per_disk: int, xor_rate: float) -> Generator:
        readers = [
            self.sim.process(self.source_stream(i, data_per_disk, xor_rate), name=f"src{i}")
            for i in range(len(self.source_disks))
        ]
        yield self.sim.all_of(readers)

    def write_all(self, data_per_disk: int) -> Generator:
        writers = [
            self.sim.process(self.writeback(i, data_per_disk), name=f"wb{i}")
            for i in range(2)
        ]
        yield self.sim.all_of(writers)


def simulate_raid6_rebuild(
    data_per_disk: int,
    surviving_disks: int = 14,
    chunk_size: int = 4 * units.MiB,
    nic_rate: float = units.gbps(10),
) -> float:
    """The RAID-6 double rebuild.  Every stripe lost two blocks, so *all*
    data on *all* survivors is read, shipped to the rebuild master and
    decoded; the decoded data then streams to both replacement disks.

    Returns the rebuild completion time (the Table 2 row value).
    """
    # Same cache-vs-streaming decode rates as the RAIDP reconstruction.
    xor_rate = chunk_xor_rate(chunk_size)
    rig = _Raid6Rig(surviving_disks, chunk_size, nic_rate)

    def rebuild() -> Generator:
        yield from rig.read_all(data_per_disk, xor_rate)
        yield from rig.write_all(data_per_disk)

    rig.sim.run_process(rebuild())
    return rig.sim.now
