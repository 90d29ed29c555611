"""Reference implementations the differential suites compare against.

Oracles are test-side code: production modules carry no switch, branch
or hook for them.  The classes subclass the production class and replace
the optimized decisions with the obvious ones; three functions read a
switch's flows and a disk's next I/O cost from outside; one enumerates
every remirror plan for the recovery planner's optimum; one runs an
ext-scale RAIDP point with no observer bound; then come the
Monte-Carlo engine's closed form, its per-event judge as it was before
it was compiled per scheme, and its trial as the loop over failure
events it was before it judged arrays; the registry of live views the
one metrics reader replaced; last, an Lstor's parity folded eagerly.
Either way a defect in the production path shows up as a disagreement.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro import units
from repro.analysis.montecarlo import DurabilityEngine, Fleet, _chain_blocked
from repro.analysis.scheme import DurabilityModelError, Scheme
from repro.core import recovery
from repro.core.lstor import LSTOR_WRITE_RATE, filler_name
from repro.core.node import RaidpDataNode
from repro.core.placement import RaidpPlacement
from repro.core.recovery import _Pullers, _Raid6Rig
from repro.ec.gf256 import GF256
from repro.errors import LayoutError, PlacementError
from repro.experiments import ext_scale, table2_recovery
from repro.faults import DiskLifetimeModel, RepairModel
from repro.hdfs.block import BlockLocations
from repro.hdfs.namenode import ReplicationPlacement, healthy_datanode
from repro.obs.metrics import SWITCH_WORK_COUNTERS
from repro.obs.tracer import active_tracer
from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.network import Switch
from repro.units import HOURS_PER_YEAR
from repro.workloads.dfsio import dfsio_write


class _HeapBucket:
    """The oracle's now-bucket: an ``append`` that heap-pushes.

    Production writes zero-delay entries as ``(seq, entry)`` pairs into
    ``_now_bucket`` from several inlined sites; this stand-in pushes
    each as ``(now, seq, entry)`` onto the one heap instead, and is
    always empty, so the inherited loop only ever pops the heap.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def append(self, pair: Tuple[int, Any]) -> None:
        sim = self.sim
        heapq.heappush(sim._heap, (sim.now, pair[0], pair[1]))

    def __len__(self) -> int:
        return 0

    def popleft(self) -> Tuple[int, Any]:
        raise AssertionError("the oracle's now-bucket is always empty")


class HeapSimulator(Simulator):
    """The reference scheduler: one binary heap for every entry.

    Zero-delay entries included: the now-bucket is a :class:`_HeapBucket`.
    ``timeout`` and ``_schedule_event`` are the plain constructor path and
    a ``heappush``, so no inlined production scheduling site runs.
    """

    def __init__(self) -> None:
        super().__init__()
        self._now_bucket = _HeapBucket(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))


class ReferenceSwitch(Switch):
    """The brute-force oracle: every event re-solves the whole topology.

    Each arrival is solved on the spot (no same-instant batching), every
    solve banks and re-rates *all* active flows (no component scoping),
    rates come from textbook progressive filling (no heap), and a rate
    change re-solves even when it touches no flow.  Banking, the
    completion heap and delivery are inherited.
    """

    def transfer(self, src, dst, nbytes):
        done = super().transfer(src, dst, nbytes)
        self._flush_pending()
        return done

    def set_nic_rates(self, nic, tx_rate=None, rx_rate=None):
        super().set_nic_rates(nic, tx_rate=tx_rate, rx_rate=rx_rate)
        self._update([])

    def _component(self, dirty_ports):
        return list(self._flows)

    def _solve(self, flows, now):
        flows = sorted(flows, key=lambda flow: flow.seq)
        ports = {port for flow in flows for port in (flow.src_port, flow.dst_port)}
        cap = {port: port.capacity for port in ports}
        unfrozen = list(flows)
        while unfrozen:
            load = {port: 0 for port in ports}
            for flow in unfrozen:
                load[flow.src_port] += 1
                load[flow.dst_port] += 1
            offers = {p: max(cap[p], 0.0) / load[p] for p in ports if load[p]}
            share = min(offers.values())
            bottlenecks = {p for p, offer in offers.items() if offer == share}
            for flow in unfrozen:
                if flow.src_port in bottlenecks or flow.dst_port in bottlenecks:
                    cap[flow.src_port] -= share
                    cap[flow.dst_port] -= share
                    self._set_rate(flow, share, now)
            unfrozen = [
                flow
                for flow in unfrozen
                if flow.src_port not in bottlenecks and flow.dst_port not in bottlenecks
            ]


def flow_rates(switch):
    """Active flows as (src, dst, remaining, rate), in arrival order.

    Progress is reported as-if banked to now (without mutating state),
    so two switches driven through identical histories are directly
    comparable even though progress is banked lazily.  Arrivals queued
    at this instant are solved first, so mid-instant introspection sees
    final rates.
    """
    switch._flush_pending()
    now = switch.sim.now
    rows = []
    for flow in switch._flows:
        src, dst = flow.src, flow.dst
        if src is None or dst is None:
            continue  # a packet train: no network flow
        elapsed = now - flow.last_update
        remaining = flow.remaining
        if elapsed > 0 and flow.rate > 0:
            remaining = max(0.0, remaining - flow.rate * elapsed)
        rows.append((src.name, dst.name, remaining, flow.rate))
    return rows


def node_traffic(switch):
    """Per-NIC traffic counters, keyed by NIC name."""
    return {name: nic.stats for name, nic in switch._nics.items()}


def estimate(disk, offset, nbytes):
    """Duration ``disk``'s next I/O would take by its geometry alone."""
    geometry = disk.geometry
    distance = abs(offset - disk.head)
    duration = geometry.transfer_time(nbytes)
    if distance != 0:
        duration += geometry.seek_time(distance)
        if distance > geometry.near_threshold:
            duration += geometry.rotational_latency
    return duration


class FullSolveSwitch(Switch):
    """The production switch with the resume disabled: every solve
    fills from round 0 (``Switch._fresh``), so a departure re-solves
    its whole component.  Held to production with ``==``."""

    def _resume(self, flows):
        return None


class ScanFillSwitch(Switch):
    """The exact-arithmetic oracle for heap-driven filling.

    Every solve fills from round 0 as a plain scan: each round takes
    ``min()`` over all ports still carrying unfrozen flows (first port
    in scan order on ties) and filters every unfrozen flow against the
    bottleneck.  Same floats, same ``_set_rate`` order as production's
    heap -- compared with ``==`` -- at O(rounds x (ports + flows)) per
    solve, which the work counters show.
    """

    def _solve(self, flows, now):
        if not flows:
            return
        self.solves += 1
        flows = sorted(flows, key=lambda flow: flow.seq)  # the scan order
        remaining_cap, load = {}, {}
        for flow in flows:
            for port in (flow.src_port, flow.dst_port):
                if port not in load:
                    remaining_cap[port] = port.capacity
                    load[port] = 0
                load[port] += 1
        unfrozen = dict.fromkeys(flows)
        while unfrozen:
            racing = [port for port in load if load[port] > 0]
            bottleneck = min(
                racing, key=lambda port: remaining_cap[port] / load[port]
            )
            share = max(remaining_cap[bottleneck], 0.0) / load[bottleneck]
            frozen_now = [
                flow
                for flow in unfrozen
                if flow.src_port is bottleneck or flow.dst_port is bottleneck
            ]
            self.fill_steps += len(racing) + len(frozen_now)
            for flow in frozen_now:
                for port in (flow.src_port, flow.dst_port):
                    remaining_cap[port] -= share
                    load[port] -= 1
                del unfrozen[flow]
                self._set_rate(flow, share, now)


class RosterCopyPlacement(ReplicationPlacement):
    """Stock HDFS placement as it was before it read the roster in place.

    Every call copies the registry into a list of healthy DataNodes, a
    name index and a second list of names, shuffles through
    ``random.Random.shuffle`` and sorts by ``dict.get``.  The replica set
    and the RNG state after each call are what production must reproduce.
    """

    def choose_targets(self, block, writer, datanodes):
        alive = [dn for dn in datanodes.values() if healthy_datanode(dn)]
        if len(alive) < self.replication:
            raise PlacementError(
                f"need {self.replication} live datanodes, have {len(alive)}"
            )
        chosen = []
        by_name = {dn.name: dn for dn in alive}
        if writer is not None and writer in by_name:
            chosen.append(writer)
        remaining = [dn.name for dn in alive if dn.name not in chosen]
        self._rng.shuffle(remaining)
        remaining.sort(key=lambda name: self._placed.get(name, 0))
        pool_size = max(3 * len(remaining) // 4, self.replication)
        pool = remaining[:pool_size]
        self._rng.shuffle(pool)
        chosen.extend(pool[: self.replication - len(chosen)])
        for name in chosen:
            self._placed[name] = self._placed.get(name, 0) + 1
        return BlockLocations(block=block, datanodes=chosen)


class FullScanPlacement(RaidpPlacement):
    """The scan-everything oracle for RAIDP block placement.

    Every call lists every eligible superchunk of the cluster, then tests
    each one's pair against the writer to find the writer-local subset --
    no use of the writer's slot tables or the domain index -- and sums
    each disk's load over its superchunks -- no use of the map's tally.
    The pool, the pressure minimum (re-evaluated per use), the tied list
    and the RNG draw are what production must reproduce call for call.
    """

    def choose_targets(self, block, writer, datanodes):
        alive = {name for name, dn in datanodes.items() if healthy_datanode(dn)}
        disks = self.layout.disks

        def holds(disk, sc_id):
            return disk in disks and sc_id in self.layout.superchunks_of(disk)

        candidates = sorted(
            sc_id
            for sc_id, sc in self.layout.superchunks.items()
            if not self.map.is_frozen(sc_id)
            and sc.disk_a in alive
            and sc.disk_b in alive
            and self.map.free_slots(sc_id) > 0
            and holds(sc.disk_a, sc_id)
            and holds(sc.disk_b, sc_id)
        )
        if not candidates:
            raise PlacementError("no eligible superchunk")

        def local(disk):
            return writer is not None and (
                disk == writer or (self.layout.domain_of(disk) or disk) == writer
            )

        preferred = [sc for sc in candidates if any(map(local, self._pair(sc)))]
        pool = preferred or candidates

        def load_of(disk):
            return sum(map(self.map.used_slots, self.layout.superchunks_of(disk)))

        def pressure(sc_id):
            loads = sorted(map(load_of, self._pair(sc_id)), reverse=True)
            return (loads[0], loads[1], self.map.used_slots(sc_id))

        best = min(pressure(sc) for sc in pool)
        tied = [sc for sc in pool if pressure(sc) == best]
        sc_id = self._rng.choice(tied)
        slot = self.map.allocate_slot(sc_id, block.name)
        pair = list(self._pair(sc_id))
        for index, disk in enumerate(pair):
            if local(disk):
                pair.insert(0, pair.pop(index))
                break
        return BlockLocations(block=block, datanodes=pair, sc_id=sc_id, slot=slot)


def min_remirror_load(dfs, failed):
    """(orphans placed, least total receiver load) of the best legal,
    exchange-free plan for ``failed``'s orphans.

    An orphan is a superchunk naming ``failed`` whose one other holder,
    its sender, is healthy.  Enumerates every plan that gives each
    orphan a distinct healthy receiver other than ``failed``, or leaves
    it unplaced.  A legal receiver is another disk of the layout, in
    another failure domain, sharing no superchunk with the sender and
    below its superchunk capacity; no two senders may swap (A -> B while
    B -> A).  The best plan places the most orphans, then loads its
    receivers least; ``plan_remirror`` must reach it.  Exhaustive, so
    keep the cluster small.
    """
    layout = dfs.layout
    healthy = [dn.name for dn in dfs.datanodes if healthy_datanode(dn)]
    senders = []
    for sc in layout.superchunks.values():
        if failed in sc.disks:
            (other,) = sc.disks - {failed}
            if other in healthy and layout.holds(other, sc.sc_id):
                senders.append(other)
    receivers = [name for name in healthy if name != failed]

    def legal(sender, receiver):
        return (
            sender != receiver
            and layout.has_disk(receiver)
            and not layout.same_domain(sender, receiver)
            and layout.shared(sender, receiver) is None
            and len(layout.superchunks_of(receiver)) < layout.max_superchunks()
        )

    def best(index, moves):
        """The least (-placed, load) over the plans extending ``moves``."""
        if index == len(senders):
            return (-len(moves), sum(dfs.map.load_of_disk(r) for _s, r in moves))
        sender = senders[index]
        options = [best(index + 1, moves)]  # leave this orphan unplaced
        taken = {r for _s, r in moves}
        for receiver in receivers:
            if (
                receiver not in taken
                and legal(sender, receiver)
                and (receiver, sender) not in moves
            ):
                options.append(best(index + 1, moves + [(sender, receiver)]))
        return min(options)

    placed, load = best(0, [])
    return -placed, load


class DiscretePullers(_Pullers):
    """The fluid body's oracle: every reconstruction stream chunk by
    chunk, start to end -- the puller loop production ran before its
    streams got a :class:`~repro.sim.network.Transfer` body.  Substitute
    it for ``repro.core.recovery._Pullers`` (see :func:`discrete_lane`)."""

    def puller(self, source_dn, source_sc):
        """Stream one source (a mirror superchunk, or the parity when
        ``source_sc`` is None) into the receiver, chunk by chunk."""
        options = self.options
        byte_lo, byte_hi, rx_nic = self.byte_lo, self.byte_hi, self.rx_nic
        lock_whole, lock_ranges = self.lock_whole, self.lock_ranges
        memory_bus, streaming = self.memory_bus, self.streaming
        nic_of = lambda dn: dn.node.nics[options.nic_index]  # noqa: E731
        offset = byte_lo
        while offset < byte_hi:
            run = min(options.chunk_size, byte_hi - offset)
            ops = []
            if source_sc is not None:
                ops.append(
                    source_dn.disk.start_io(
                        "read",
                        source_dn.superchunk_base(source_sc) + offset,
                        run,
                    )
                )
            ops.append(
                self.switch.transfer(nic_of(source_dn), rx_nic, run)
            )
            yield self.sim.all_of(ops)
            xor_time = run / options.xor_rate
            if options.lock_mode == "superchunk":
                grant = yield lock_whole.request()
                try:
                    yield self.sim.timeout(recovery.LOCK_OVERHEAD + xor_time)
                finally:
                    lock_whole.release(grant)
            else:
                grant = yield lock_ranges.acquire(offset, offset + run)
                try:
                    bus_share = recovery.STREAMING_BUS_SHARE if streaming else 0.0
                    yield self.sim.timeout(
                        recovery.LOCK_OVERHEAD + (1.0 - bus_share) * xor_time
                    )
                    if bus_share > 0.0:
                        bus_grant = yield memory_bus.request()
                        try:
                            yield self.sim.timeout(bus_share * xor_time)
                        finally:
                            memory_bus.release(bus_grant)
                finally:
                    lock_ranges.release(grant)
            offset += run
        return None


class DiscreteRaid6Rig(_Raid6Rig):
    """The RAID-6 rig's chunk loops over whole streams (the fluid rig's
    oracle); substitute it for ``repro.core.recovery._Raid6Rig``."""

    def source_stream(self, index, data_per_disk, xor_rate):
        sim, chunk_size = self.sim, self.chunk_size
        start_io = self.source_disks[index].start_io
        transfer = self.switch.transfer
        src, master = self.sources[index], self.master
        all_of, timeout = sim.all_of, sim.timeout
        offset = 0
        while offset < data_per_disk:
            run = min(chunk_size, data_per_disk - offset)
            read = start_io("read", offset, run)
            flow = transfer(src, master, run)
            yield all_of([read, flow])
            # Decode on the master (serialized per received chunk).
            yield timeout(run / xor_rate)
            offset += run
        return None

    def writeback(self, index, data_per_disk):
        chunk_size = self.chunk_size
        start_io = self.replacement_disks[index].start_io
        transfer = self.switch.transfer
        master, dst = self.master, self.replacements[index]
        all_of = self.sim.all_of
        offset = 0
        while offset < data_per_disk:
            run = min(chunk_size, data_per_disk - offset)
            flow = transfer(master, dst, run)
            write = start_io("write", offset, run)
            yield all_of([flow, write])
            offset += run
        return None


def discrete_lane(monkeypatch):
    """Run every rebuild stream chunk by chunk for the rest of the test:
    the per-chunk oracle of the fluid lane, with no production switch."""
    monkeypatch.setattr(recovery, "_Pullers", DiscretePullers)
    monkeypatch.setattr(recovery, "_Raid6Rig", DiscreteRaid6Rig)


def _packet_loop(self, locations, payload, inbound):
    """The packet train's oracle: ``RaidpDataNode._stream_block`` as the
    loop it was before its packets ran as one train -- journal, write,
    sync, ack latency and Lstor transfer for every 64 KB packet (write-
    back-sized chunks without the journal).  Substitute it with
    :func:`packet_loop`."""
    block = locations.block
    sc_id, slot = self._placement_of(locations)
    old = self.slot_payload(sc_id, slot)
    granularity = (
        self.config.packet_size if self.raidp.enable_journal else 5 * units.MiB // 8
    )
    offset = 0
    while offset < block.size:
        run = min(granularity, block.size - offset)
        record = self._open_record(locations, sc_id, slot, old, payload, run)
        if record is not None:
            yield self.sim.timeout(self.lstors.journal_write_time(run))
        yield from self.fs.write(block.name, offset, run)
        if record is not None:
            yield from self.fs.sync()
            # Per-packet remote acknowledgment, charged as latency.
            yield self.sim.timeout(2 * self.switch.BASE_LATENCY)
            self._commit_record(record)
            self._close_record(record)
        if self.raidp.enable_parity:
            yield self.sim.timeout(run / LSTOR_WRITE_RATE)
        offset += run
    if inbound is not None:
        yield inbound
    yield from self.fs.sync()
    yield from self._update_slot(
        sc_id, slot, old, payload, locations, ("w", block.name, locations.version)
    )
    return None


def packet_loop(monkeypatch):
    """Run every unoptimized RAIDP replica write packet by packet for the
    rest of the test: the packet train's oracle, with no production
    switch."""
    monkeypatch.setattr(RaidpDataNode, "_stream_block", _packet_loop)


def eager_preallocate(self):
    """Lazy preallocation's oracle: ``RaidpDataNode.preallocate_superchunks``
    as the loop it was before fillers were derived on demand -- mint
    every local slot's filler, store it as a block named after it and
    absorb it into the parity.  Substitute it on the class before the
    cluster is built."""
    for sc_id in self.layout.superchunks_of(self.name):
        for slot in range(self.map.slots_per_superchunk):
            if (sc_id, slot) in self._block_at:
                continue
            name = filler_name(sc_id, slot)
            payload = self.factory.make(name, 0, self.config.block_size)
            self.store_content(name, payload, 0)
            self._bind_slot(name, sc_id, slot)
            if self.raidp.enable_parity:
                self.lstors.absorb_update(
                    self.shard_index_of(sc_id),
                    slot,
                    self.factory.zero(self.config.block_size),
                    payload,
                )


class EagerParity:
    """A single Lstor's parity by its definition, in bytes: every payload
    absorbed is drawn and XORed in at once, and a failed device absorbs
    nothing until it is reset.  The oracle of ``Lstor``'s term sets,
    where a write's ``old`` cancels its previous ``new`` unread."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self.failed = False
        self._slots: Dict[int, np.ndarray] = {}

    def absorb(self, slot: int, *payloads: Any) -> None:
        if self.failed:
            return
        accum = self._slots.setdefault(slot, np.zeros(self.block_size, dtype=np.uint8))
        for payload in payloads:
            accum ^= payload.data

    def parity(self, slot: int) -> bytes:
        return bytes(self._slots.get(slot, np.zeros(self.block_size, dtype=np.uint8)))

    def fail(self) -> None:
        self.failed = True

    def reset(self) -> None:
        self.failed = False
        self._slots.clear()


def folding_covers(stack: Any, slot: int, blocks: Dict[int, Any]) -> bool:
    """The parity check by folding bytes: for every live row, add each
    block's drawn bytes times the row's coefficient into a fresh buffer
    and compare it with a read of the row (the read folds the slot's
    preallocation fillers first).  The oracle of ``Lstor.covers``;
    unlike it, this changes the stack it reads and draws every term it
    meets."""
    for row in stack.live_rows():
        expected = np.zeros(stack.block_size, dtype=np.uint8)
        for shard, payload in blocks.items():
            GF256.addmul_bytes(expected, stack.coefficients[row][shard], payload.data)
        if bytes(stack.parity_block(slot, row).data) != bytes(expected):
            return False
    return True


def folding_verify_parity(dfs: Any) -> None:
    """``RaidpCluster.verify_parity`` on :func:`folding_covers`."""
    for datanode in dfs._parity_trusted():
        sc_ids = dfs.layout.superchunks_of(datanode.name)
        for slot in range(dfs.map.slots_per_superchunk):
            blocks = {
                datanode.shard_index_of(sc_id): datanode.slot_payload(sc_id, slot)
                for sc_id in sc_ids
            }
            if not folding_covers(datanode.lstors, slot, blocks):
                raise LayoutError(f"parity mismatch on {datanode.name} slot {slot}")


def _table2_rows(keys):
    return {key: table2_recovery.run_task(key) for key in keys}


def table2_differential(keys, monkeypatch):
    """(fluid rows, oracle rows) of the Table 2 tasks ``keys``, by task."""
    fluid = _table2_rows(keys)
    with monkeypatch.context() as patch:
        discrete_lane(patch)
        oracle = _table2_rows(keys)
    return fluid, oracle


def assert_rows_agree(fluid, oracle, rel=0.01):
    """Each row within ``rel``, and every pair of rows the oracle tells
    apart by more than that keeps its order (the 1 Gbps rows tie to the
    ulp)."""
    for key, value in oracle.items():
        assert fluid[key] == pytest.approx(value, rel=rel), key
    for low in oracle:
        for high in oracle:
            if oracle[low] < (1.0 - rel) * oracle[high]:
                assert fluid[low] < fluid[high], (low, high)


def packet_train_differential(builders, dataset, monkeypatch):
    """(train, oracle) {name: (runtime, network bytes)}: a DFSIO write of
    ``dataset`` on the cluster each of ``builders`` builds, with packet
    trains and then with the packet loop."""

    def runs():
        results = {}
        for name, build in builders.items():
            dfs = build()
            runtime = dfsio_write(dfs, dataset).runtime
            results[name] = (runtime, dfs.total_network_bytes())
        return results

    train = runs()
    with monkeypatch.context() as patch:
        packet_loop(patch)
        oracle = runs()
    return train, oracle


def ext_scale_raidp_single_sim(num_nodes, seed):
    """One ext-scale RAIDP point with no observer: ingest and worst-pair
    recovery on the same cluster, no sampler bound to either phase.
    Returns (write seconds, net GB per node, recovery seconds)."""
    dfs = ext_scale._build("raidp", num_nodes, seed)
    write = dfsio_write(dfs, num_nodes * ext_scale.BYTES_PER_NODE)
    per_node_gb = dfs.switch.total_bytes / num_nodes / units.GB
    return write.runtime, per_node_gb, ext_scale._recover_worst_pair(dfs)


def mttf_hours(lifetime):
    """Mean disk lifetime in hours (Weibull mean = scale * Gamma(1+1/k))."""
    return lifetime.scale_hours * math.gamma(1.0 + 1.0 / lifetime.weibull_shape)


def analytic_mc_mttdl(
    scheme: Scheme,
    fleet: Fleet,
    lifetime: DiskLifetimeModel,
    repair: RepairModel,
) -> float:
    """Closed-form per-group MTTDL (years) under the engine's semantics.

    Valid in the validation regime only: exponential lifetimes
    (``weibull_shape == 1``), no latent errors, no bursts, an uncontended
    repair pool, and eager recovery.  Derivation: a group dies when its
    ``tolerance + 1``-th member fails while ``tolerance`` others sit in
    their repair windows of length T.  The renewal process alternates
    MTTF of life with T of repair, so a disk fails at rate
    ``1 / (MTTF + T)`` and is mid-repair with stationary probability
    ``T / (MTTF + T)`` -- the exact quantities the engine's event
    streams realize, rather than the first-order ``lambda * T``.  Note
    the classic :func:`~repro.analysis.scheme.mttdl_replication`
    ladder assumes *serialized* rebuild stages, which halves the
    tolerance-2 MTTDL relative to this overlapping-window model -- the
    property test pins that factor rather than pretending the two
    models agree exactly.  For RAIDP the chain-blocked term is convex
    in the fleet's dead fraction, so a point estimate at the mean dead
    count would understate the loss rate (Jensen); the RAIDP branch
    therefore takes the expectation over the binomial dead-count
    distribution explicitly.
    """
    window = repair.detection_hours + repair.disk_rebuild_hours
    cycle = mttf_hours(lifetime) + window
    lam = 1.0 / cycle  # renewal failure rate per disk
    p_dead = window / cycle  # stationary P(a specific disk is mid-repair)
    if scheme.kind == "replication":
        others = scheme.width - 1
        # Loss at a member failure when `others` are all already dead.
        rate = scheme.width * lam * p_dead**others
    elif scheme.kind == "erasure":
        # tolerance others (of width-1) already dead at a member failure.
        rate = (
            scheme.width
            * lam
            * math.comb(scheme.width - 1, scheme.tolerance)
            * p_dead**scheme.tolerance
        )
    else:  # raidp
        # At a failure event the engine sees K other disks dead
        # (K ~ Binomial(num_disks - 1, p_dead) in steady state), prices
        # the partner as dead with probability ~K / (num_disks - 1),
        # and blocks each chain decode with the same K-dependent rate.
        # The product K * side(K)^2 is convex in K, so expectation over
        # K is taken term by term.
        others = fleet.num_disks - 1
        mean_term = math.fsum(
            math.comb(others, k)
            * p_dead**k
            * (1.0 - p_dead) ** (others - k)
            * (k / others)
            * _chain_blocked(k / others, scheme) ** 2
            for k in range(others + 1)
        )
        rate = 2.0 * lam * mean_term
    if rate <= 0.0:
        return math.inf
    return 1.0 / rate / HOURS_PER_YEAR


def reference_judge(
    fleet: Fleet,
    scheme: Scheme,
    dead_others: int,
    dead_outside_rack: int,
    dead_pairs_distinct_racks: float,
    remaining_hours_outside_rack: float,
    failed_lstor_destroyed: bool,
    any_dead_lstor_destroyed: bool,
    p_block_lse: float,
) -> Tuple[float, float]:
    """(P(group lost), expected unavailable group-hours) for one group
    containing the disk that just failed: the engine's per-event judge
    as it ran before ``montecarlo._compile_judge`` hoisted everything
    that depends only on (fleet, scheme) -- the ``kind`` ladder walked,
    every ``comb`` ratio and every chain decode re-derived, per call.

    ``dead_outside_rack`` / ``dead_pairs_distinct_racks`` summarize the
    concurrently-dead set D excluding the failed disk's rack (group
    members never share it); ``remaining_hours_outside_rack`` is the
    summed remaining repair time of those disks, which prices the
    expected both-copies-dead overlap window.
    """
    other_racks = fleet.num_racks - 1
    per_disk = 1.0 / (other_racks * fleet.disks_per_rack)
    p_partner = dead_outside_rack * per_disk  # P(one specific member dead)
    if scheme.kind == "replication":
        if scheme.width == 2:
            # Partner dead, or the surviving copy's rebuild read hits
            # a latent error the scrubber has not cleaned yet.
            return p_partner + (1.0 - p_partner) * p_block_lse, 0.0
        # rep3+: all other members already dead, or all-but-one dead
        # and the last source read hits a latent error.
        others = scheme.width - 1
        if others == 2:
            # The two other members land on 2 uniform distinct racks
            # among `other_racks`, one uniform disk each; sum over
            # distinct-rack dead pairs.
            p_all = (
                dead_pairs_distinct_racks
                / (math.comb(other_racks, 2) * fleet.disks_per_rack**2)
                if other_racks > 1
                else 0.0
            )
            p_but_one = 2.0 * p_partner * (1.0 - p_partner)
        else:
            p_all = p_partner**others
            p_but_one = others * p_partner ** (others - 1) * (1.0 - p_partner)
        return p_all + p_but_one * p_block_lse, 0.0
    if scheme.kind == "erasure":
        members = scheme.width - 1  # other stripe members
        if other_racks < members:
            raise DurabilityModelError("stripe wider than the fleet")
        # P(two specific dead disks are both stripe members): the
        # stripe occupies `members` of the other racks.
        p_rack_pair = (
            math.comb(other_racks - 2, members - 2)
            / math.comb(other_racks, members)
            if members >= 2
            else 0.0
        )
        p_two = (
            dead_pairs_distinct_racks * p_rack_pair / fleet.disks_per_rack**2
        )
        p_rack_single = math.comb(other_racks - 1, members - 1) / math.comb(
            other_racks, members
        )
        p_one = dead_outside_rack * p_rack_single / fleet.disks_per_rack
        # At exactly `tolerance` erasures the decode needs all n
        # remaining sources clean; any latent error finishes it.
        p_lse_decode = 1.0 - (1.0 - p_block_lse) ** scheme.needed_online
        return p_two + p_one * p_lse_decode, 0.0
    # raidp: partner dead AND both parity-chain decodes blocked.
    # Chain sources are replicas scattered fleet-wide; a source is
    # bad if its disk is dead or its read hits a latent error.
    q = dead_others / max(fleet.num_disks - 1, 1)
    q = q + (1.0 - q) * p_block_lse
    side_self = 1.0 if failed_lstor_destroyed else _chain_blocked(q, scheme)
    side_partner = 1.0 if any_dead_lstor_destroyed else _chain_blocked(q, scheme)
    p_assist_fail = side_self * side_partner
    p_loss = p_partner * p_assist_fail
    # Assist-survivable both-dead windows are *unavailable*: parity
    # decode restores durability, not serving.  Expected overlap
    # hours = sum over dead candidates of their remaining repair
    # time, weighted by the placement probability.
    unavailable_hours = (
        remaining_hours_outside_rack * per_disk * (1.0 - p_assist_fail)
    )
    return p_loss, unavailable_hours


def loop_sample_failures(
    engine: DurabilityEngine, rng: np.random.Generator, horizon: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``DurabilityEngine._sample_failures`` with its bursts drawn one at a
    time: per rack, per burst, a ``uniform`` call for the burst's time and
    a ``random`` call for the rack's kills."""
    fleet = engine.fleet
    turnaround = engine.repair.detection_hours + engine.repair.disk_rebuild_hours
    times: List[np.ndarray] = []
    disks: List[np.ndarray] = []
    active = np.arange(fleet.num_disks)
    clock = np.zeros(fleet.num_disks)
    while active.size:
        lifetimes = engine.lifetime.sample_lifetimes(rng, active.size)
        fail_at = clock[active] + lifetimes
        hit = fail_at < horizon
        active = active[hit]
        fail_at = fail_at[hit]
        if not active.size:
            break
        times.append(fail_at)
        disks.append(active.copy())
        clock[active] = fail_at + turnaround
    n_renewal = sum(chunk.size for chunk in times)
    model = engine.correlated
    if model.burst_rate_per_rack_year > 0:
        per_rack = model.burst_rate_per_rack_year * horizon / HOURS_PER_YEAR
        counts = rng.poisson(per_rack, fleet.num_racks)
        for rack in range(fleet.num_racks):
            for _ in range(int(counts[rack])):
                when = rng.uniform(0.0, horizon)
                killed = np.nonzero(
                    rng.random(fleet.disks_per_rack) < model.burst_kill_probability
                )[0]
                if killed.size:
                    times.append(np.full(killed.size, when))
                    disks.append(rack * fleet.disks_per_rack + killed)
    if not times:
        empty = np.zeros(0)
        return empty, empty.astype(int), empty.astype(bool)
    all_times = np.concatenate(times)
    all_disks = np.concatenate(disks)
    from_burst = np.zeros(all_times.size, dtype=bool)
    from_burst[n_renewal:] = True
    order = np.lexsort((all_disks, all_times))
    return all_times[order], all_disks[order], from_burst[order]


def loop_sample_outages(
    engine: DurabilityEngine, rng: np.random.Generator, horizon: float
) -> List[Tuple[float, float, int]]:
    """``DurabilityEngine._sample_outages`` with one ``uniform`` call per
    outage."""
    model = engine.correlated
    if model.rack_outage_rate_per_year <= 0:
        return []
    per_rack = model.rack_outage_rate_per_year * horizon / HOURS_PER_YEAR
    counts = rng.poisson(per_rack, engine.fleet.num_racks)
    outages: List[Tuple[float, float, int]] = []
    for rack in range(engine.fleet.num_racks):
        for _ in range(int(counts[rack])):
            start = rng.uniform(0.0, horizon)
            end = min(start + model.rack_outage_hours, horizon)
            outages.append((start, end, rack))
    return outages


def _closure_schedule(repair: RepairModel, times: List[float]) -> List[float]:
    """Repair-completion time per failure event: the scheduler as it ran
    with a ``release`` closure and a pop-then-push per rebuild."""
    done = [0.0] * len(times)
    slots = [0.0] * repair.concurrent_rebuilds
    heapq.heapify(slots)
    pending: List[Tuple[float, float, int]] = []  # (deadline, detect, idx)

    def release(batch: List[Tuple[float, float, int]], trigger: float) -> None:
        for _deadline, detect, idx in batch:
            begin = max(trigger, detect, heapq.heappop(slots))
            finish = begin + repair.disk_rebuild_hours
            heapq.heappush(slots, finish)
            done[idx] = finish

    for idx, failed_at in enumerate(times):
        detect = failed_at + repair.detection_hours
        # Deadline-expired stragglers release before this arrival.
        while pending and pending[0][0] <= detect:
            entry = pending.pop(0)
            release([entry], entry[0])
        pending.append((detect + repair.lazy_max_wait_hours, detect, idx))
        if len(pending) >= repair.lazy_threshold:
            release(pending, detect)
            pending = []
    for entry in pending:
        release([entry], entry[0])
    return done


def _one_event(judge: Callable[..., Any]) -> Callable[..., Tuple[float, float]]:
    """``judge`` on a single event's scalars, as the per-event loop called it."""

    def call(*event: Any) -> Tuple[float, float]:
        p_loss, hours = judge(*(np.array([value]) for value in event))
        return float(p_loss[0]), float(np.broadcast_to(hours, (1,))[0])

    return call


def event_loop_trial(
    engine: DurabilityEngine, trial: int, years: float,
    compiled: List[Tuple[Scheme, float, float, Callable[..., Any]]],
    unreadable: Dict[Tuple[int, int], List[float]],
) -> List[Tuple[float, float, float, float, np.ndarray]]:
    """``DurabilityEngine._simulate_trial`` as a loop over failure events:
    a dict of dead disks with heap expiry, one judgment per event (an
    event that finds no other disk dead takes one of two verdicts per
    scheme), a ``+=`` per event and scheme, and the timeline's buckets
    filled per event.  It shares the engine's compiled judges and segment
    merge, and brings its own samplers (one RNG call per burst and per
    outage) and repair scheduler (a heap of slots).  An outage segment
    counts the disks dead at its midpoint by replaying the stream into a
    dict, so a disk struck again while dead counts once, as in the
    judgment's dead set.
    """
    fleet = engine.fleet
    horizon = years * HOURS_PER_YEAR
    rng = engine._trial_rng(trial)
    times_a, disks_a, burst_a = loop_sample_failures(engine, rng, horizon)
    # One conversion per trial; the event loop runs on Python scalars.
    times, disks, bursts = times_a.tolist(), disks_a.tolist(), burst_a.tolist()
    racks_a = disks_a // fleet.disks_per_rack
    racks = racks_a.tolist()
    done = _closure_schedule(engine.repair, times)
    outages = loop_sample_outages(engine, rng, horizon)
    trace = active_tracer()
    tracing: bool = trace.enabled

    schemes = range(len(compiled))
    judges = [_one_event(judge) for _scheme, _groups, _gb, judge in compiled]
    # An event that finds no other disk dead has one of two verdicts.
    idle = [
        [judge(0, 0, 0.0, 0.0, burst, False) for judge in judges]
        for burst in (False, True)
    ]
    lost = [0.0] * len(compiled)
    unavailable = [0.0] * len(compiled)
    repair_gb = [0.0] * len(compiled)

    # --- sparse data-loss judgment over failure events ---
    active: Dict[int, Tuple[float, bool, int]] = {}  # disk -> (done, burst, rack)
    expiry: List[Tuple[float, int]] = []
    buckets = engine.timeline_buckets
    bucket_hours = horizon / buckets
    dead_disk_timeline = [0.0] * buckets
    for i, t in enumerate(times):
        disk = disks[i]
        rack = racks[i]
        burst = bursts[i]
        while expiry and expiry[0][0] <= t:
            _when, gone = heapq.heappop(expiry)
            entry = active.get(gone)
            if entry is not None and entry[0] <= t:
                del active[gone]
        dead_others = len(active) - (disk in active)
        if not dead_others:
            verdicts = idle[burst]
        else:
            dead_outside = 0
            remaining = 0.0  # summed repair hours left outside the rack
            per_rack: Dict[int, int] = {}
            lstor_dead = False  # some dead partner candidate's Lstors died too
            for other_done, other_burst, other_rack in active.values():
                if other_rack != rack:
                    dead_outside += 1
                    remaining += other_done - t
                    per_rack[other_rack] = per_rack.get(other_rack, 0) + 1
                    if other_burst:
                        lstor_dead = True
            same_rack = sum(c * c for c in per_rack.values())
            pairs = (dead_outside * dead_outside - same_rack) / 2.0
            event = (dead_others, dead_outside, pairs, remaining, burst, lstor_dead)
            verdicts = [judge(*event) for judge in judges]
        # `+=` per event, in event order: the rounding sequence is
        # what the pinned tallies and the bench digest hold fixed.
        for k in schemes:
            p_loss, unavailable_hours = verdicts[k]
            scheme, groups_per_disk, gb, _judge = compiled[k]
            lost[k] += groups_per_disk * p_loss
            unavailable[k] += groups_per_disk * unavailable_hours
            repair_gb[k] += gb
            if tracing and p_loss > 0.0:
                trace.instant(
                    "durability", "loss_risk", t, scheme=scheme.name,
                    expected_groups=groups_per_disk * p_loss,
                    dead=dead_others + 1,
                )
        finish = done[i]
        active[disk] = (finish, burst, rack)
        heapq.heappush(expiry, (finish, disk))
        if tracing:
            trace.count("fleet", "dead_disks", t, float(len(active)))
        # Blocks-at-risk timeline: the dead interval [t, finish).
        lo = t / bucket_hours
        hi = min(finish, horizon) / bucket_hours
        first = int(lo)
        if hi <= first + 1.0 and first < buckets:
            dead_disk_timeline[first] += hi - lo  # one bucket: the loop, run once
        else:
            for b in range(first, min(math.ceil(hi), buckets)):
                overlap = min(hi, b + 1.0) - max(lo, float(b))
                if overlap > 0:
                    dead_disk_timeline[b] += overlap

    # --- availability over merged outage segments ---
    for start, end, dark in engine._outage_segments(outages):
        mid = (start + end) / 2.0
        latest: Dict[int, Tuple[float, int]] = {}  # disk -> (done, rack)
        for t, disk, rack, finish in zip(times, disks, racks, done):
            if t <= mid:
                latest[disk] = (finish, rack)
        dead_racks = [rack for finish, rack in latest.values() if finish > mid]
        lit_dead = sum(rack not in dark for rack in dead_racks)
        expected = unreadable.get((len(dark), lit_dead))
        if expected is None:
            lit_disks = (fleet.num_racks - len(dark)) * fleet.disks_per_rack
            q_dead = lit_dead / lit_disks if lit_disks else 0.0
            expected = unreadable[len(dark), lit_dead] = [
                fleet.groups * engine._segment_unreadable(scheme, len(dark), q_dead)
                for scheme, _groups, _gb, _judge in compiled
            ]
        for k in schemes:
            unavailable[k] += expected[k] * (end - start)
        if tracing:
            trace.complete(
                "fleet", "rack_outage_segment", start, end, racks=len(dark)
            )
    if tracing:
        trace.complete(
            "durability", "trial", 0.0, horizon, trial=trial, failures=len(times)
        )
    total_dead_hours = math.fsum(
        min(finish, horizon) - t for t, finish in zip(times, done)
    )
    timeline = np.array(dead_disk_timeline)
    return [
        (
            lost[k], unavailable[k], groups_per_disk * total_dead_hours,
            repair_gb[k], timeline * groups_per_disk,
        )
        for k, (_scheme, groups_per_disk, _gb, _judge) in enumerate(compiled)
    ]


class RegistryReader:
    """The registry of live views ``obs.metrics.read_cluster`` replaced.

    Construction registers a supplier (counts, ``blocks_at_risk``) or
    adopts the component's own object (gauges, histograms) under a
    canonical ``name{k=v,...}`` key with the label pairs sorted;
    :meth:`as_dict` re-reads every view into the sorted nested snapshot
    the sampler used to flatten, and :meth:`flat` is that flattening:
    ``float(count)``, gauge ``current``, and per histogram its bucket
    counts, sum and max.
    """

    def __init__(self, dfs: Any, monitor: Optional[Any] = None) -> None:
        self._counters: Dict[str, Callable[[], int]] = {}
        self._gauges: Dict[str, Any] = {}
        self._gauge_views: Dict[str, Callable[[], float]] = {}
        self._gauge_view_max: Dict[str, float] = {}
        self._histograms: Dict[str, Any] = {}
        for datanode in dfs.datanodes:
            disk = datanode.disk
            stats = disk.stats
            self.counter("disk_reads", lambda s=stats: s.reads, disk=disk.name)
            self.counter("disk_writes", lambda s=stats: s.writes, disk=disk.name)
            self.counter("disk_bytes_read", lambda s=stats: s.bytes_read, disk=disk.name)
            self.counter(
                "disk_bytes_written", lambda s=stats: s.bytes_written, disk=disk.name
            )
            self.counter("disk_seeks", lambda s=stats: s.seeks, disk=disk.name)
            self._gauges[self.key("disk_queue_depth", disk=disk.name)] = disk.queue_gauge
            self._histograms[self.key("disk_io_latency", disk=disk.name)] = disk.io_latency
            self.counter(
                "dn_blocks_written", lambda d=datanode: d.stats_blocks_written,
                dn=datanode.name,
            )
            self.counter(
                "dn_blocks_read", lambda d=datanode: d.stats_blocks_read,
                dn=datanode.name,
            )
            lstors = getattr(datanode, "lstors", None)
            if lstors is not None:
                journal = lstors.journal
                self._gauges[self.key("journal_outstanding", journal=journal.name)] = (
                    journal.outstanding_gauge
                )
                self.counter(
                    "journal_appends", lambda j=journal: j.total_appends,
                    journal=journal.name,
                )
                self.counter(
                    "journal_clears", lambda j=journal: j.total_clears,
                    journal=journal.name,
                )
                self.counter(
                    "journal_used_bytes", lambda j=journal: j.used_bytes,
                    journal=journal.name,
                )
        for index, client in enumerate(getattr(dfs, "clients", ()) or ()):
            for name in ("pipeline_recoveries", "read_failovers", "degraded_reads"):
                if hasattr(client, f"stats_{name}"):
                    self.counter(
                        f"client_{name}",
                        lambda c=client, a=f"stats_{name}": getattr(c, a),
                        client=index,
                    )
        switch = dfs.switch
        self.counter("net_bytes_total", lambda s=switch: s.total_bytes)
        for name, attribute in SWITCH_WORK_COUNTERS.items():
            self.counter(name, lambda s=switch, a=attribute: getattr(s, a))
        self._gauges["net_active_flows"] = switch.flows_gauge
        namenode = dfs.namenode
        self._gauge_views["blocks_at_risk"] = (
            lambda n=namenode: float(len(n.under_replicated()))
        )
        if monitor is not None:
            self.counter("repair_bytes_total", lambda m=monitor: self._repair_bytes(m))
            self.counter("recoveries_total", lambda m=monitor: len(m.reports))
            self.counter(
                "recovery_errors_total", lambda m=monitor: len(m.recovery_errors)
            )

    @staticmethod
    def key(name: str, **labels: Any) -> str:
        if not labels:
            return name
        inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
        return f"{name}{{{inner}}}"

    def counter(self, name: str, supplier: Callable[[], int], **labels: Any) -> None:
        self._counters[self.key(name, **labels)] = supplier

    @staticmethod
    def _repair_bytes(monitor: Any) -> int:
        total = 0
        layout = getattr(monitor.dfs, "layout", None)
        superchunk_size = layout.spec.superchunk_size if layout is not None else 0
        for report in monitor.reports:
            total += report.bytes_reconstructed
            total += len(report.remirrored) * superchunk_size
        return total

    def as_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        gauges: Dict[str, Dict[str, float]] = {
            key: {
                "current": gauge.current,
                "max": gauge.max_value,
                "average": gauge.average(now),
            }
            for key, gauge in self._gauges.items()
        }
        for key, supplier in self._gauge_views.items():
            # A view has no history: its max is over the instants read.
            value = float(supplier())
            peak = self._gauge_view_max[key] = max(
                self._gauge_view_max.get(key, 0.0), value
            )
            gauges[key] = {"current": value, "max": peak, "average": value}
        return {
            "counters": {
                key: int(supplier()) for key, supplier in sorted(self._counters.items())
            },
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                key: {
                    "count": hist.total,
                    "sum": hist.sum,
                    "max": hist.max,
                    "mean": hist.sum / hist.total if hist.total else 0.0,
                    "bounds": list(hist.bounds),
                    "counts": list(hist.counts),
                }
                for key, hist in sorted(self._histograms.items())
            },
        }

    def flat(
        self, now: float
    ) -> Tuple[Dict[str, float], Dict[str, Tuple[list, float, float]]]:
        snapshot = self.as_dict(now)
        readings = {key: float(count) for key, count in snapshot["counters"].items()}
        for key, gauge in snapshot["gauges"].items():
            readings[key] = float(gauge["current"])
        histograms = {
            key: (list(hist["counts"]), float(hist["sum"]), float(hist["max"]))
            for key, hist in snapshot["histograms"].items()
        }
        return readings, histograms
