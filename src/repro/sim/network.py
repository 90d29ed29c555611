"""Max-min fair-share network model: NICs, flows, and a star switch.

The paper's cluster connects 16 nodes to one switch via both a 10 Gbps and
a 1 Gbps NIC.  We model the switch backplane as non-blocking, so a flow is
constrained only by its endpoints: the sender's transmit port and the
receiver's receive port (NICs are full duplex).  When several flows share
a port, bandwidth is divided by progressive filling (max-min fairness),
which is the steady state that per-flow fair queueing / TCP converge to.

Allocation is *incremental*: each port keeps a dict-backed ordered set of
its active flows, and a flow arrival, departure, or NIC-rate change only
re-solves the **connected component** of ports reachable from the ports
it touched -- flows elsewhere keep their rates untouched (max-min rates
are component-local, so this is exact, not an approximation).  Progress
is banked lazily: only flows inside the re-solved component are credited
with bytes moved at their old rate; an undisturbed flow's progress is a
single ``rate * elapsed`` evaluated when something finally touches it.

Completion is driven by a lazy-invalidation heap of per-flow deadlines:
every rate change pushes a fresh ``(deadline, seq, flow)`` entry and the
one armed engine timer always targets the heap top; entries whose flow
finished or was since re-rated are skipped on pop.  This keeps the event
count proportional to the number of flow arrivals/departures rather than
to bytes transferred or to the square of the flow count.

A re-solve runs progressive filling off a heap of per-port offers, so
it costs the flows it freezes rather than a scan of every port per
round.  Every solve leaves a log on the flows it rated, and a
re-solve after departures alone resumes it from the earliest round a
departed flow froze in: the rounds before it are what a fresh solve
would repeat, bit for bit.

The rebuild-the-world *reference* allocator (bank every flow and
re-solve the whole topology on every event) and the scan-every-port
filling loop are test-side code: ``Switch`` subclasses in
``tests/oracles.py``, the oracles for the differential tests in
``tests/test_network_solver.py``.

A chunked stream's *body* -- every chunk after its first -- can run as
one :class:`Transfer` (:meth:`Switch.stream`): a flow that also crosses
the disk it reads or writes, the shared stage its chunks queue for and
its own chunk-cycle cap, and whose solved share is paced into one chunk
per cycle.  A packet train (:meth:`Switch.train`) is such a body with no
NIC ends: only its own cycle's cap and its disk.

Per-node accumulated traffic is tracked so experiments can report the
paper's "accumulated network GB" bars (Fig. 10).
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

from repro import units
from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator
from repro.sim.stats import TimeWeightedGauge
from repro.sim.snapshot import InlineState

if TYPE_CHECKING:
    from repro.sim.disk import Disk, DiskRun

_INF = float("inf")
_BY_SEQ = operator.attrgetter("seq")


@dataclass
class FlowStats(InlineState):
    """Network accounting for one endpoint (node)."""

    bytes_sent: int = 0
    bytes_received: int = 0
    flows_started: int = 0
    flows_finished: int = 0


class Nic:
    """One full-duplex port: independent transmit and receive capacity."""

    __slots__ = ("name", "tx_rate", "rx_rate", "stats")

    def __init__(self, name: str, rate: float, rx_rate: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError("NIC rate must be positive")
        self.name = name
        self.tx_rate = rate
        self.rx_rate = rx_rate if rx_rate is not None else rate
        self.stats = FlowStats()


class _Port:
    """One direction (tx or rx) of a NIC: capacity plus a flow registry.

    ``flows`` is a dict used as an ordered set: insertion order is the
    flow arrival order (deterministic), membership/removal are O(1).
    ``label`` names the constraint the port stands for when it bounds a
    body's rate.
    """

    __slots__ = ("nic", "is_tx", "flows", "label")

    def __init__(self, nic: Nic, is_tx: bool, label: str = "nic") -> None:
        self.nic = nic
        self.is_tx = is_tx
        self.flows: Dict["_Flow", None] = {}
        self.label = label

    @property
    def capacity(self) -> float:
        return self.nic.tx_rate if self.is_tx else self.nic.rx_rate


class _Flow:
    """An in-flight transfer between two NICs (none for a packet train,
    :meth:`Switch.train`)."""

    __slots__ = (
        "src",
        "dst",
        "remaining",
        "total",
        "rate",
        "done",
        "started_at",
        "last_update",
        "src_port",
        "dst_port",
        "ports",
        "seq",
        "deadline",
        "finished",
        "threshold",
        "log",
    )

    def __init__(
        self,
        src: Optional[Nic],
        dst: Optional[Nic],
        nbytes: int,
        done: Event,
        now: float,
        ports: Tuple[_Port, ...],
        seq: int,
    ) -> None:
        self.src = src
        self.dst = dst
        self.remaining = float(nbytes)
        self.total = nbytes
        self.rate = 0.0
        self.done = done
        self.started_at = now
        self.last_update = now
        # Every port the flow crosses, its NIC ends first: the solver
        # walks ``ports``; the auditor reads the ends directly.
        self.ports = ports
        self.src_port = ports[0]
        self.dst_port = ports[1]
        self.seq = seq  # arrival order: canonical solve/tie-break order
        self.deadline = _INF  # latest pushed completion deadline
        self.finished = False
        # Completion threshold: a byte-fraction floor absorbs float
        # residue; scale-relative for huge transfers so banking error
        # cannot strand a flow.  Precomputed -- it is consulted on every
        # bank of every flow.
        self.threshold = max(1e-6, self.total * 1e-12)
        self.log: Optional[_SolveLog] = None  # the solve that rated it


class _SolveLog:
    """What one progressive-filling solve leaves on the flows it rated,
    so that a re-solve of the same flows less departures can resume it
    (:meth:`Switch._resume`).

    ``capacity`` holds each port's capacity at round 0;
    ``remaining_cap`` and ``load`` are the filling state (every load is
    0 once the solve is done).  ``undo`` is one flat list:
    per round, a ``port, previous remaining_cap`` pair for every charge,
    then the round's start offset, its frozen flows and its bottleneck.
    ``size`` counts the flows rated, ``departed`` those retired since.
    """

    __slots__ = ("size", "capacity", "remaining_cap", "load", "undo", "departed")

    def __init__(self, size: int) -> None:
        self.size = size
        self.capacity: Dict[_Port, float] = {}
        self.remaining_cap: Dict[_Port, float] = {}
        self.load: Dict[_Port, int] = {}
        self.undo: List[Any] = []
        self.departed: List[_Flow] = []


#: A filling loop's start: its log, the offer heap, the flows to freeze
#: and each racing port's first-seen key.
_FillStart = Tuple[
    _SolveLog, List[Tuple[float, int, int, _Port]], Set[_Flow], Dict[_Port, int]
]


class Stage:
    """A stage the streams of one job pass through behind a shared FIFO
    lock (a reconstruction's XOR lock, its memory bus).

    The lock staggers the streams, so the stage *overlaps* their wire
    time: to the solver it is a capacity port of ``rate`` bytes/s that
    every :class:`Transfer` body naming it shares max-min fairly with
    the NICs.  A chunk that runs outside any body takes the real lock;
    while it holds it (:meth:`Switch.hold_stage`) the port passes
    nothing.  An unbounded stage (the default) has no port -- holders of
    different byte ranges work in parallel -- but still makes its bodies
    overlapping ones (see :meth:`Switch.stream`).  The port is a
    transmit port of a pseudo-NIC whose rate is the stage's capacity.
    """

    __slots__ = ("name", "rate", "port")

    def __init__(self, name: str, rate: float = _INF) -> None:
        self.name = name
        self.rate = rate
        self.port = None if rate == _INF else _Port(Nic(name, rate), True, name)


class _DiskPort(_Port):
    """The disk under one or more bodies' runs: they share its
    :meth:`~repro.sim.disk.Disk.run_rate` max-min fairly -- its media
    rate, less the head moves when several runs interleave -- and pass
    nothing while a queued I/O is served.  One per disk, for as long as
    a run is open on it (:meth:`Switch.stream`)."""

    __slots__ = ("disk",)

    def __init__(self, disk: "Disk") -> None:
        super().__init__(Nic(disk.name, disk.geometry.transfer_rate), True, "disk")
        self.disk = disk

    @property
    def capacity(self) -> float:
        return self.disk.run_rate(self.runs())

    def runs(self) -> List[Tuple["DiskRun", float]]:
        """The open runs with their (banked) head positions, in opening
        order."""
        return [
            (body.disk, body.disk.offset + body.moved)
            for body in self.flows
            if isinstance(body, Transfer) and body.disk is not None
        ]


class _Cycle:
    """One chunk of a stream, in seconds: the disk I/O and the wire
    transfer overlap (plus the switch latency on the wire), then the
    chunk's stage work follows."""

    __slots__ = ("chunk", "disk_rate", "stage_s")

    def __init__(self, chunk: int, disk_rate: Optional[float], stage_s: float) -> None:
        self.chunk = chunk
        self.disk_rate = disk_rate
        self.stage_s = stage_s

    def disk_bound(self, wire: float) -> bool:
        """Does the disk, not the wire, set the chunk's I/O time?"""
        if self.disk_rate is None or wire <= 0:
            return False
        return self.chunk / self.disk_rate > self.chunk / wire + Switch.BASE_LATENCY

    def rate(self, wire: float) -> float:
        """Bytes/s of a stream whose chunks cross the wire at ``wire``."""
        if wire <= 0:
            return 0.0
        io_s = self.chunk / wire + Switch.BASE_LATENCY
        if self.disk_rate is not None:
            io_s = max(io_s, self.chunk / self.disk_rate)
        return self.chunk / (io_s + self.stage_s)


class _CyclePort(_Port):
    """An overlapping body's private port: its own chunk cycle at the
    source NIC's current transmit rate, which caps the body when no
    shared constraint does (a small rebuild, a slow source disk)."""

    __slots__ = ("cycle",)

    def __init__(self, nic: Nic, cycle: _Cycle) -> None:
        super().__init__(nic, True, "own")
        self.cycle = cycle

    @property
    def capacity(self) -> float:
        return self.cycle.rate(self.nic.tx_rate)


class Transfer(_Flow):
    """The body of a chunked stream: every chunk after the first, as one
    flow whose rate is piecewise-constant (DESIGN.md §4c).

    ``ports`` are the two NIC ends, then -- for an overlapping body -- its
    shared stage's port (if bounded) and its own :class:`_CyclePort`,
    then its disk's :class:`_DiskPort` (if it has a run).  The solver
    hands the body a max-min *share* of them, and :meth:`pace` turns it
    into the body's rate:

    - **overlapping** (``shared``): the stage sits behind a lock every
      stream holds in turn, so it runs while other streams are on the
      wire; the rate is the share itself.
    - **private**: streams that start together stay in lock step, so
      the stage adds serially to every chunk and the wire idles during
      it.  A share set by a NIC is the body's wire rate, and the rate is
      one chunk per :meth:`_Cycle.rate` cycle at that wire rate; a share
      set by the disk is its read (or write) rate, and the stage follows
      each chunk of it.

    The body also records which constraint set its rate over its
    longest constant-rate segment (``bound``: ``nic``, ``disk``,
    ``own``, or a stage's name).
    """

    __slots__ = (
        "cycle", "disk", "shared", "label", "segment_start", "longest", "bound",
    )

    def __init__(
        self,
        src: Optional[Nic],
        dst: Optional[Nic],
        nbytes: int,
        done: Event,
        now: float,
        ports: Tuple[_Port, ...],
        seq: int,
        cycle: _Cycle,
        disk: Optional["DiskRun"],
        shared: bool,
    ) -> None:
        super().__init__(src, dst, nbytes, done, now, ports, seq)
        self.cycle = cycle
        self.disk = disk
        self.shared = shared
        self.label: Optional[str] = None
        self.segment_start = now
        self.longest = -1.0
        self.bound: Optional[str] = None

    def pace(self, share: float, port: _Port, now: float) -> float:
        """The rate of a body the solver froze at ``share`` on ``port``."""
        cycle = self.cycle
        if self.shared:
            rate = share
            label = port.label
            if label == "own" and self.src is not None and cycle.disk_bound(self.src.tx_rate):
                label = "disk"
        elif port.label == "disk":
            rate = cycle.chunk / (cycle.chunk / share + cycle.stage_s) if share > 0 else 0.0
            label = "disk"
        else:
            rate = cycle.rate(share)
            label = "disk" if cycle.disk_bound(share) else "nic"
        if rate != self.rate or label != self.label:
            self._end_segment(now)
            self.label = label
        return rate

    def _end_segment(self, now: float) -> None:
        if self.label is not None and now - self.segment_start > self.longest:
            self.longest = now - self.segment_start
            self.bound = self.label
        self.segment_start = now

    @property
    def moved(self) -> int:
        """Whole bytes banked so far."""
        return int(round(self.total - max(self.remaining, 0.0)))

    def close(self, now: float) -> None:
        """The body left the switch: settle its bound and its disk run."""
        self._end_segment(now)
        if self.disk is not None:
            self.disk.close(self.moved)


class Switch(InlineState):
    """A non-blocking switch connecting NICs in a star topology."""

    #: Fixed one-way latency added to every transfer (switch + stack).
    BASE_LATENCY = 50 * units.USEC

    def __init__(self, sim: Simulator, name: str = "switch") -> None:
        self.sim = sim
        self.name = name
        self._nics: Dict[str, Nic] = {}
        #: Global ordered set of active flows (arrival order).
        self._flows: Dict[_Flow, None] = {}
        self._tx_ports: Dict[Nic, _Port] = {}
        self._rx_ports: Dict[Nic, _Port] = {}
        self._flow_seq = 0
        #: Lazy-invalidation completion heap: (deadline, push seq, flow).
        self._completions: List[Tuple[float, int, _Flow]] = []
        self._push_seq = 0
        #: Deadline the currently armed engine timer targets (inf = none).
        self._timer_deadline = _INF
        self._timer_version = 0
        #: Ports touched by arrivals at the current instant, awaiting one
        #: batched solve at the timestamp boundary.
        self._pending_dirty: Dict[_Port, None] = {}
        self._flush_scheduled = False
        #: The port of each disk that open body runs are on.
        self._disk_ports: Dict["Disk", _DiskPort] = {}
        self.total_bytes = 0
        #: Exact work counters: non-empty solves, and filling steps
        #: (port offers evaluated + flows rated) summed over them.
        self.solves = 0
        self.fill_steps = 0
        #: Completion-timer dispatches, and those that retired nothing
        #: (superseded by a re-arm, or every due deadline had moved).
        self.timer_fires = 0
        self.timer_idle_fires = 0
        #: Concurrent flow count over time (read by ``obs.metrics``).
        self.flows_gauge = TimeWeightedGauge(start_time=sim.now)

    # ------------------------------------------------------------------
    # Topology.
    # ------------------------------------------------------------------
    def attach(self, nic: Nic) -> Nic:
        if nic.name in self._nics:
            raise SimulationError(f"NIC {nic.name!r} attached twice")
        self._nics[nic.name] = nic
        return nic

    def _port(self, nic: Nic, is_tx: bool) -> _Port:
        # Ports are created lazily so transfers work for NICs that were
        # never attach()ed (attach only registers traffic reporting).
        ports = self._tx_ports if is_tx else self._rx_ports
        port = ports.get(nic)
        if port is None:
            port = ports[nic] = _Port(nic, is_tx)
        return port

    # ------------------------------------------------------------------
    # Transfers.
    # ------------------------------------------------------------------
    def transfer(self, src: Nic, dst: Nic, nbytes: int) -> Event:
        """Start a flow of ``nbytes`` from ``src`` to ``dst``.

        Returns an event that fires (with the flow duration) when the last
        byte arrives.  A flow carries at least one byte.
        """
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        sim = self.sim
        now = sim.now
        # Flattened sim.event(): one flow per transferred chunk makes the
        # constructor frames measurable in the recovery loops.
        done = Event.__new__(Event)
        done.sim = sim
        done._callbacks = None
        done._value = None
        done._exception = None
        done.triggered = False
        done._scheduled = False
        src.stats.flows_started += 1
        src_port = self._port(src, is_tx=True)
        dst_port = self._port(dst, is_tx=False)
        self._flow_seq += 1
        flow = _Flow(src, dst, nbytes, done, now, (src_port, dst_port), self._flow_seq)
        self._flows[flow] = None
        src_port.flows[flow] = None
        dst_port.flows[flow] = None
        self._arrive(flow, now)
        return done

    def _arrive(self, flow: _Flow, now: float) -> None:
        """Count a registered flow in and queue its ports for the solve."""
        self.flows_gauge.adjust(1.0, now)
        trace = self.sim.trace
        if trace.enabled:
            trace.count("net", "active_flows", now, len(self._flows))
        # Batch same-instant arrivals into one boundary solve: a recovery
        # wave starting k flows at once costs one component re-solve
        # instead of k.  Exact, because a flow banked at the instant it
        # arrived has moved zero bytes either way and the final
        # same-instant rates are what every flow's deadline is computed
        # from.
        pending = self._pending_dirty
        for port in flow.ports:
            pending[port] = None
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.sim.add_flush_hook(self._flush_pending)

    def _touch(self, port: _Port) -> None:
        """Queue ``port`` for the solve at the end of this instant (its
        disk's FIFO slot was taken or freed)."""
        self._pending_dirty[port] = None
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.sim.add_flush_hook(self._flush_pending)

    def stream(
        self,
        src: Nic,
        dst: Nic,
        nbytes: int,
        chunk: int,
        stage_s: float,
        disk: Optional["DiskRun"] = None,
        shared: Optional[Stage] = None,
    ) -> Transfer:
        """Start the body of a chunked stream: ``nbytes`` more bytes that
        a chunk loop would move ``chunk`` at a time, as one flow.

        Each chunk would overlap its ``disk`` I/O (if any) with its
        transfer, then spend ``stage_s`` seconds in a stage.  With a
        ``shared`` stage the streams overlap it (the body crosses the
        stage's port and its own chunk-cycle port); without one the
        stage is private and adds serially to every chunk (see
        :class:`Transfer`).  A body with a disk run also crosses the
        disk's port, shared with every other run on that disk.  The rate
        is re-solved whenever flow membership, a NIC rate or the disk's
        FIFO slot changes hands, like any flow's.

        The body's ``done`` event fires like :meth:`transfer`'s.  Its
        disk run is one long I/O: if the disk dies mid-body the body
        ends at that instant, keeps the bytes it moved, and ``done``
        fails with the :class:`DiskFailedError`.
        """
        if nbytes <= 0 or chunk <= 0:
            raise ValueError("a stream body needs positive bytes and chunk")
        cycle = _Cycle(chunk, disk.rate if disk is not None else None, stage_s)
        ports: Tuple[_Port, ...] = (self._port(src, is_tx=True), self._port(dst, is_tx=False))
        if shared is not None:
            if shared.port is not None:
                ports += (shared.port,)
            ports += (_CyclePort(src, cycle),)
        return self._open_body(src, dst, nbytes, ports, cycle, disk, shared is not None)

    def train(self, run: "DiskRun", nbytes: int, chunk: int, cycle_s: float) -> Transfer:
        """Start a packet train: ``nbytes`` that ``run`` writes ``chunk``
        at a time, one chunk per ``cycle_s`` seconds while it has its
        disk to itself, as one body.

        The train crosses no NIC and moves no network bytes: only its
        own cycle's cap and its disk's port, which it shares with every
        other run there (:meth:`~repro.sim.disk.Disk.run_rate`, whose
        round then charges each chunk its head move and the run's
        per-chunk overhead).  ``done`` fires like a stream body's and
        fails the same way if the disk dies mid-train.
        """
        if nbytes <= 0 or chunk <= 0 or cycle_s <= 0:
            raise ValueError("a packet train needs positive bytes, chunk and cycle")
        own = _Port(Nic("train", chunk / cycle_s), True, "own")
        cycle = _Cycle(chunk, None, cycle_s)
        return self._open_body(None, None, nbytes, (own,), cycle, run, True)

    def _open_body(
        self,
        src: Optional[Nic],
        dst: Optional[Nic],
        nbytes: int,
        ports: Tuple[_Port, ...],
        cycle: _Cycle,
        disk: Optional["DiskRun"],
        shared: bool,
    ) -> Transfer:
        """Register a stream body or a train on ``ports`` (then its
        disk's port, when it has a run) and queue it for the solve."""
        sim = self.sim
        now = sim.now
        if disk is not None:
            disk_port = self._disk_ports.get(disk.disk)
            if disk_port is None:
                disk_port = _DiskPort(disk.disk)
            elif disk_port.flows:
                self._settle_disk(disk_port, now)
            ports += (disk_port,)
        self._flow_seq += 1
        body = Transfer(
            src, dst, nbytes, sim.event(), now, ports, self._flow_seq,
            cycle, disk, shared,
        )
        if disk is not None:
            failed = disk.open(
                nbytes,
                cycle.chunk,
                lambda error: self._cut(body, error),
                lambda: self._touch(disk_port),
            )
            if failed is not None:
                body.finished = True
                body.done.fail(failed)
                return body
            self._disk_ports[disk.disk] = disk_port
        if src is not None:
            src.stats.flows_started += 1
        self._flows[body] = None
        for port in ports:
            port.flows[body] = None
        self._arrive(body, now)
        return body

    def _settle_disk(self, port: _DiskPort, now: float) -> None:
        """The runs on ``port``'s disk are about to change: bank their
        bodies and let the runs account what they moved."""
        self._bank(port.flows, now)
        port.disk.settle_runs(port.runs())

    def hold_stage(self, stage: Stage, held: bool) -> None:
        """A chunk outside every body takes (``held``) or releases the
        lock in front of ``stage``: while it holds it, no body passes
        the stage, and the bodies crossing it are re-solved either way."""
        port = stage.port
        if port is None:
            return
        port.nic.tx_rate = 0.0 if held else stage.rate
        if port.flows:
            self._flush_pending()  # arrivals at this instant came first
            self._update([port])

    def _cut(self, body: Transfer, error: BaseException) -> None:
        """The disk under ``body`` died: end the body at this instant.

        It keeps (and accounts) the bytes it moved, leaves the switch,
        fails its ``done`` with ``error``, and the bandwidth it held is
        re-solved like any departure's.
        """
        # Arrivals queued at this instant preceded the fault.
        self._flush_pending()
        now = self.sim.now
        self._bank((body,), now)
        self._retire(body)
        moved = body.moved
        src, dst = body.src, body.dst
        if src is not None and dst is not None:  # a train moves no network bytes
            src.stats.bytes_sent += moved
            dst.stats.bytes_received += moved
            src.stats.flows_finished += 1
            self.total_bytes += moved
            trace = self.sim.trace
            if trace.enabled:
                trace.complete(
                    "net", "flow", body.started_at, now,
                    src=src.name, dst=dst.name, bytes=moved, cut=True,
                )
        body.done.fail(error)
        self._update(list(body.ports))

    def _flush_pending(self) -> None:
        """Solve the arrivals accumulated at the current instant."""
        self._flush_scheduled = False
        pending = self._pending_dirty
        if not pending:
            return
        dirty = list(pending)
        pending.clear()
        self._update(dirty)

    def set_nic_rates(
        self,
        nic: Nic,
        tx_rate: Optional[float] = None,
        rx_rate: Optional[float] = None,
    ) -> None:
        """Change a NIC's port speeds mid-flight (link degradation).

        In-flight flows keep the bytes they already moved (progress is
        banked at the old rates) and the fair-share allocation is
        recomputed at the new capacities -- the same bank/re-solve cycle
        a flow arrival or departure triggers, scoped to the component(s)
        the NIC's two ports belong to.
        """
        if (tx_rate is not None and tx_rate <= 0) or (
            rx_rate is not None and rx_rate <= 0
        ):
            raise ValueError("NIC rate must be positive")
        # Arrivals queued at this instant preceded the change: solve them
        # at the old capacities first.
        self._flush_pending()
        dirty: List[_Port] = []
        if tx_rate is not None:
            nic.tx_rate = tx_rate
            port = self._tx_ports.get(nic)
            if port is not None and port.flows:
                dirty.append(port)
        if rx_rate is not None:
            nic.rx_rate = rx_rate
            port = self._rx_ports.get(nic)
            if port is not None and port.flows:
                dirty.append(port)
        if dirty:
            self._update(dirty)

    # ------------------------------------------------------------------
    # Incremental max-min fair allocation (progressive filling).
    # ------------------------------------------------------------------
    def _update(self, dirty_ports: List[_Port]) -> None:
        """Bank, finish-detect, and re-solve the affected component(s).

        BFS + ``_bank`` + ``_solve``: finish detection, retirement and
        re-rating are separate steps, so reallocation never sees
        half-removed flows, and completions are delivered only after the
        allocator ran on clean state.
        """
        now = self.sim.now
        candidates = self._component(dirty_ports)
        trace = self.sim.trace
        if trace.enabled:
            trace.instant("net", "resolve", now, flows=len(candidates))
        finished = self._bank(candidates, now)
        if len(finished) > 1:
            finished.sort(key=_BY_SEQ)  # retire and deliver in arrival order
        for flow in finished:
            self._retire(flow)
        if finished:
            candidates = [flow for flow in candidates if not flow.finished]
        self._solve(candidates, now)
        if finished:
            delivery = self.sim.timeout(self.BASE_LATENCY)
            for flow in finished:
                self._deliver(flow, delivery)
        self._arm_timer(now)

    def _component(self, dirty_ports: List[_Port]) -> List[_Flow]:
        """Flows in the connected component(s) of the dirty ports, in
        traversal order: dicts (not sets) keep it deterministic.  Only a
        fresh solve reads the order of the flows; it sorts them itself.

        Ports are vertices, flows are (hyper)edges over their ports.
        """
        seen_ports: Dict[_Port, None] = dict.fromkeys(dirty_ports)
        flows: Dict[_Flow, None] = {}
        stack = list(dirty_ports)
        while stack:
            port = stack.pop()
            for flow in port.flows:
                if flow not in flows:
                    flows[flow] = None
                    for other in flow.ports:
                        if other not in seen_ports:
                            seen_ports[other] = None
                            stack.append(other)
        return list(flows)

    def _bank(self, flows: Iterable[_Flow], now: float) -> List[_Flow]:
        """Credit ``flows`` with bytes moved at their current rate.

        Pure detection: returns the flows that crossed their completion
        threshold without removing them from any registry.
        """
        finished: List[_Flow] = []
        for flow in flows:
            elapsed = now - flow.last_update
            if elapsed > 0 and flow.rate > 0:
                moved = flow.rate * elapsed
                if moved > flow.remaining:
                    moved = flow.remaining
                flow.remaining -= moved
            flow.last_update = now
            if flow.remaining <= flow.threshold:
                finished.append(flow)
        return finished

    def _retire(self, flow: _Flow) -> None:
        """Drop a finished flow from the global and per-port registries."""
        flow.finished = True
        del self._flows[flow]
        log = flow.log
        if log is not None:
            log.departed.append(flow)
            flow.log = None
        disk_run = flow.disk if isinstance(flow, Transfer) else None
        if disk_run is not None:
            self._settle_disk(self._disk_ports[disk_run.disk], self.sim.now)
        for port in flow.ports:
            del port.flows[flow]
        if isinstance(flow, Transfer):
            if disk_run is not None and not flow.ports[-1].flows:
                del self._disk_ports[disk_run.disk]  # its last run closes
            flow.close(self.sim.now)
        self.flows_gauge.adjust(-1.0, self.sim.now)

    def _deliver(self, flow: _Flow, delivery: Event) -> None:
        """Account a finished flow and schedule its completion delivery.

        ``delivery`` is one base-latency timeout shared by every flow that
        finished in the same wave: callbacks fire in attach order, which
        is the order per-flow timeouts would have dispatched in (their seqs
        would have been consecutive), so completion delivery order is
        unchanged.  The base latency keeps even an infinitely-fast link's
        transfer time nonzero.  A packet train crossed no link: it is
        done with its last packet, and moved no network bytes.
        """
        src, dst = flow.src, flow.dst
        if src is None or dst is None:
            flow.done.succeed(self.sim.now - flow.started_at)
            return
        src.stats.bytes_sent += flow.total
        dst.stats.bytes_received += flow.total
        src.stats.flows_finished += 1
        self.total_bytes += flow.total
        trace = self.sim.trace
        if trace.enabled:
            trace.complete(
                "net", "flow", flow.started_at, self.sim.now,
                src=src.name, dst=dst.name, bytes=flow.total,
            )
            trace.count("net", "active_flows", self.sim.now, len(self._flows))
        duration = self.sim.now - flow.started_at + self.BASE_LATENCY
        delivery.add_callback(
            lambda _ev, done=flow.done, value=duration: done.succeed(value)
        )

    def _solve(self, flows: List[_Flow], now: float) -> None:
        """Progressive filling restricted to ``flows``; re-rate changes.

        ``flows`` is closed under port sharing (a connected component),
        so the computed rates equal what global progressive filling
        would assign these flows.  The filling resumes the flows' log
        when it can (:meth:`_resume`) and starts at round 0 otherwise.
        """
        if not flows:
            return
        self.solves += 1
        start = self._resume(flows)
        if start is None:
            # By arrival order, so ties break as a global scan would.
            start = self._fresh(sorted(flows, key=_BY_SEQ))
        self._fill(*start, now)

    def _fresh(self, flows: List[_Flow]) -> _FillStart:
        """Round 0: every port at its capacity, every flow unfrozen, and
        ports keyed in the order the seq-ordered scan first meets them."""
        log = _SolveLog(len(flows))
        remaining_cap, load = log.remaining_cap, log.load
        for flow in flows:
            flow.log = log
            for port in flow.ports:
                if port in load:
                    load[port] += 1
                else:
                    remaining_cap[port] = port.capacity
                    load[port] = 1
        log.capacity = dict(remaining_cap)
        first_seen = {port: index for index, port in enumerate(load)}
        heap = [
            (remaining_cap[port] / port_load, first_seen[port], port_load, port)
            for port, port_load in load.items()
        ]
        return log, heap, set(flows), first_seen

    def _resume(self, flows: List[_Flow]) -> Optional[_FillStart]:
        """The state a fresh solve of ``flows`` reaches at the round the
        earliest departed flow froze in, from the flows' log; ``None``
        unless ``flows`` are that log's flows less the departed ones, at
        the capacities it was solved at.

        Exact: until that round every departed flow is unfrozen, so its
        ports offer no less without it (and meet ties no earlier), and
        every earlier round pops the same port at the same share and
        charges the same ports in the same order.  Loads come back as
        deltas: a kept round's loads still count departed flows.  A port
        below zero remaining capacity would offer less: round 0.  The
        racing ports are keyed ``seq * 8`` plus their place in the
        ``ports`` of their first flow (a flow crosses at most five): the
        order the new component's scan meets them in.
        """
        log = flows[0].log
        if log is None or len(flows) + len(log.departed) != log.size:
            return None
        for flow in flows:
            if flow.log is not log:
                return None
        for port, capacity in log.capacity.items():
            if port.flows and port.capacity != capacity:
                return None
        remaining_cap, load, undo = log.remaining_cap, log.load, log.undo
        refill: List[_Flow] = []
        left = len(log.departed)
        while left:
            bottleneck = undo.pop()
            frozen: List[_Flow] = undo.pop()
            start = undo.pop()
            load[bottleneck] += len(frozen)
            for index in range(len(undo) - 2, start - 1, -2):
                port = undo[index]
                remaining_cap[port] = undo[index + 1]
                load[port] += 1
            del undo[start:]
            for flow in frozen:
                if flow.finished:
                    left -= 1
                else:
                    refill.append(flow)
        for flow in log.departed:
            for port in flow.ports:
                load[port] -= 1
                if port.flows and remaining_cap[port] < 0:
                    return None
        log.size = len(flows)
        log.departed = []
        first_seen: Dict[_Port, int] = {}
        for flow in refill:
            for port in flow.ports:
                if port not in first_seen:
                    first = next(iter(port.flows))
                    first_seen[port] = (first.seq << 3) + first.ports.index(port)
        heap = [
            (remaining_cap[port] / load[port], key, load[port], port)
            for port, key in first_seen.items()
        ]
        return log, heap, set(refill), first_seen

    def _fill(
        self,
        log: _SolveLog,
        heap: List[Tuple[float, int, int, _Port]],
        unfrozen: Set[_Flow],
        first_seen: Dict[_Port, int],
        now: float,
    ) -> None:
        """Heap-driven progressive filling from ``heap``, logged in ``log``.

        Each round freezes the flows of the port offering the smallest
        fair share ``remaining_cap / load``; on equal offers the port
        seen first in the seq-ordered flow scan wins.  One heap entry
        per port is keyed ``(offer, first-seen key)`` and a fresh one is
        pushed whenever a freeze takes a flow off the port.  A port's
        load only ever decreases, so an entry is live iff the load it
        was pushed with is still the port's load -- older ones are
        skipped on pop.  A round thus costs its frozen flows (plus a log
        factor), not a scan over every port and every unfrozen flow.
        """
        remaining_cap, load, undo = log.remaining_cap, log.load, log.undo
        heapq.heapify(heap)
        steps = len(heap)
        while unfrozen:
            _offer, _index, pushed_load, bottleneck = heapq.heappop(heap)
            if load[bottleneck] != pushed_load:
                continue  # superseded: the port lost flows since the push
            # Clamp: repeated subtraction can drive a port's remaining
            # capacity a few ULPs below zero, and a negative share would
            # make flows run backwards (a livelock in disguise).
            share = max(remaining_cap[bottleneck], 0.0) / pushed_load
            # The port's own registry is in arrival order and, the
            # component being closed under port sharing, holds every
            # unfrozen flow that touches the bottleneck.
            frozen_now = [flow for flow in bottleneck.flows if flow in unfrozen]
            load[bottleneck] = 0  # all of its flows freeze: out of the race
            steps += len(frozen_now)
            start = len(undo)
            for flow in frozen_now:
                for other in flow.ports:
                    if other is bottleneck:
                        continue
                    cap = remaining_cap[other]
                    undo.append(other)
                    undo.append(cap)
                    cap = remaining_cap[other] = cap - share
                    other_load = load[other] = load[other] - 1
                    if other_load > 0:
                        steps += 1
                        heapq.heappush(
                            heap, (cap / other_load, first_seen[other], other_load, other)
                        )
                unfrozen.discard(flow)
                if isinstance(flow, Transfer):
                    self._set_rate(flow, flow.pace(share, bottleneck, now), now)
                else:
                    self._set_rate(flow, share, now)
            undo.append(start)
            undo.append(frozen_now)
            undo.append(bottleneck)
        self.fill_steps += steps

    def _set_rate(self, flow: _Flow, rate: float, now: float) -> None:
        """Apply a solved rate; push a fresh deadline if it changed."""
        if rate == flow.rate and flow.deadline != _INF:
            return  # undisturbed: the existing heap entry stays valid
        flow.rate = rate
        if rate <= 0:
            flow.deadline = _INF
            return
        deadline = now + flow.remaining / rate
        flow.deadline = deadline
        self._push_seq += 1
        heapq.heappush(self._completions, (deadline, self._push_seq, flow))

    # ------------------------------------------------------------------
    # The completion timer (lazy-invalidation heap).
    # ------------------------------------------------------------------
    def _arm_timer(self, now: float) -> None:
        """Point the single engine timer at the earliest live deadline."""
        heap = self._completions
        # Shed stale heap tops (finished or re-rated flows) eagerly so the
        # timer never fires for nothing.
        while heap and (heap[0][2].finished or heap[0][2].deadline != heap[0][0]):
            heapq.heappop(heap)
        if len(heap) > 64 and len(heap) > 4 * len(self._flows):
            # Compact: churn-heavy runs accumulate superseded entries.
            live = [
                entry
                for entry in heap
                if not entry[2].finished and entry[2].deadline == entry[0]
            ]
            heap[:] = live
            heapq.heapify(heap)
        if not heap:
            # Arrivals awaiting their boundary solve have no rate yet;
            # the pending flush will arm the timer when it rates them.
            # A body behind a held stage or disk resumes at the release.
            if self._flows and not self._pending_dirty and not all(
                any(port.capacity <= 0 for port in flow.ports) for flow in self._flows
            ):
                raise SimulationError("active flows but no positive rates")
            return
        top = heap[0][0]
        if top >= self._timer_deadline:
            return  # the armed timer already fires first
        self._timer_version += 1
        self._timer_deadline = top
        version = self._timer_version
        # Floor the delay at a nanosecond so floating-point residue can
        # never re-arm the timer at the current instant forever.
        timer = self.sim.timeout(max(top - now, 1e-9))
        timer.add_callback(lambda _ev: self._on_timer(version))

    def _on_timer(self, version: int) -> None:
        self.timer_fires += 1
        if version != self._timer_version:
            self.timer_idle_fires += 1
            return  # stale timer from before a re-arm
        self._timer_deadline = _INF
        now = self.sim.now
        heap = self._completions
        due: List[_Flow] = []
        while heap and heap[0][0] <= now:
            deadline, _seq, flow = heapq.heappop(heap)
            if flow.finished or flow.deadline != deadline:
                continue  # lazily invalidated entry
            flow.deadline = _INF
            due.append(flow)
        if not due:
            self.timer_idle_fires += 1
            self._arm_timer(now)
            return
        # Bank the due flows; anything that has not quite crossed the
        # threshold (float residue) gets a refreshed deadline.
        finished = self._bank(due, now)
        for flow in due:
            if flow.remaining > flow.threshold:
                deadline = now + max(flow.remaining / flow.rate, 1e-9)
                flow.deadline = deadline
                self._push_seq += 1
                heapq.heappush(heap, (deadline, self._push_seq, flow))
        for flow in finished:
            self._retire(flow)
        if finished:
            delivery = self.sim.timeout(self.BASE_LATENCY)
            for flow in finished:
                self._deliver(flow, delivery)
        # Departures free bandwidth: re-solve the components the finished
        # flows' ports belong to.
        dirty: Dict[_Port, None] = {}
        for flow in finished:
            for port in flow.ports:
                dirty[port] = None
        if dirty:
            self._update(list(dirty))
        else:
            self._arm_timer(now)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def deadline_pushes(self) -> int:
        """Completion deadlines pushed so far (one per effective re-rate)."""
        return self._push_seq

    def audit_flow_conservation(self) -> List[str]:
        """Flow-bookkeeping problems, as strings (empty = conserved).

        Read-only (no solve, no banking): probed by the flight-recorder
        auditor.  Checks that the global flow set and the per-port
        registries describe the same flows, that no finished or
        negative-remaining flow lingers, and that each attached NIC's
        started/finished counters balance its active sends.
        """
        problems: List[str] = []
        for flow in self._flows:
            src, dst = flow.src, flow.dst
            label = f"{src.name}->{dst.name}" if src and dst else "train"
            if flow.finished:
                problems.append(f"net: finished flow {label} still active")
            if flow.remaining < -1e-6:
                problems.append(
                    f"net: flow {label} remaining {flow.remaining} < 0"
                )
            if flow not in flow.src_port.flows:
                problems.append(f"net: flow {label} missing from tx port")
            if flow not in flow.dst_port.flows:
                problems.append(f"net: flow {label} missing from rx port")
            for port in flow.ports[2:]:
                if flow not in port.flows:
                    problems.append(f"net: flow {label} missing from {port.label} port")
        for ports, side in ((self._tx_ports, "tx"), (self._rx_ports, "rx")):
            for nic, port in ports.items():
                for flow in port.flows:
                    if flow not in self._flows:
                        problems.append(
                            f"net: {side} port {nic.name} holds a flow "
                            "absent from the global set"
                        )
        active_by_src: Dict[str, int] = {}
        for flow in self._flows:
            if flow.src is None:
                continue  # a packet train
            name = flow.src.name
            active_by_src[name] = active_by_src.get(name, 0) + 1
        for name, nic in self._nics.items():
            balance = nic.stats.flows_started - nic.stats.flows_finished
            expected = active_by_src.get(name, 0)
            if balance != expected:
                problems.append(
                    f"net: NIC {name} started-finished balance {balance} "
                    f"!= {expected} active sends"
                )
        return problems
