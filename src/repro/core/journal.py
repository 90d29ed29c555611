"""The Lstor's append-only journal (paper §3.4).

Every incoming write creates a journal record referencing the new data
and the old data it overwrites.  The parity delta is derived, not stored:
it is ``old XOR new``, computed once where the Lstor absorbs it
(:meth:`repro.core.lstor.LstorStack.absorb_update`).  The protocol is:

1. append the record to the journal (fast, on the Lstor),
2. commit the data write to disk (synced),
3. acknowledge to the remote mirror's Lstor,
4. on receiving the remote acknowledgment, clear the record.

A record still present after a crash means the write may not have reached
one of the replicas or parities; :meth:`Journal.replay_candidates`
surfaces those records so the roll-forward procedure can re-apply them.
The journal is bounded (the paper keeps it at 128 MB) and tracks the
outstanding-record gauge -- the paper observes at most one or two
outstanding records at a time, which we assert in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import units
from repro.errors import JournalError
from repro.obs.tracer import NULL_TRACER
from repro.sim.stats import TimeWeightedGauge
from repro.storage.payload import Payload
from repro.sim.snapshot import InlineState


class RecordState(enum.Enum):
    """Lifecycle of a journal record (monotone left to right)."""

    APPENDED = "appended"  # durable in the journal, write not yet on disk
    COMMITTED = "committed"  # local disk write synced
    ACKED = "acked"  # remote mirror acknowledged; clearable


@dataclass
class JournalRecord(InlineState):
    """One write's worth of recovery information.

    Holds references to the immutable old and new payloads; the parity
    delta is their XOR and is recomputed on replay, never kept here.
    """

    record_id: int
    block_name: str
    sc_id: int
    slot: int
    old_data: Payload
    new_data: Payload
    nbytes: int
    version: int = 1
    state: RecordState = RecordState.APPENDED

    @property
    def tag(self) -> tuple:
        """Dedup tag for idempotent parity replay (paper §3.4)."""
        return ("w", self.block_name, self.version)

    @property
    def journal_bytes(self) -> int:
        """Journal space this record occupies.

        The record logically carries new data, old data, and parity, but
        only the new data is staged in the journal's high-bandwidth
        memory -- old data and parity are references into the device's
        working buffers.  This is what lets the paper run a 128 MB
        journal against 64 MB blocks with one or two records outstanding.
        """
        return self.nbytes


class Journal(InlineState):
    """Bounded append-only journal with explicit state transitions."""

    def __init__(
        self,
        capacity: int = 128 * units.MiB,
        now: float = 0.0,
        strict_capacity: bool = False,
        trace: Optional[Any] = None,
        name: str = "journal",
    ) -> None:
        """``strict_capacity`` makes over-capacity appends raise.

        The default is soft: overflowing appends are admitted but counted
        (``overflows``, ``high_water_bytes``).  The real device relieves
        pressure through packet-level flow control on the write path; at
        our block-granularity model a hard cap would deadlock two mirrors
        waiting on each other's acknowledgments, so we observe pressure
        instead of enforcing it.
        """
        self.capacity = capacity
        self.strict_capacity = strict_capacity
        self.name = name
        # Any: emission sites branch on ``enabled`` first, and the null
        # tracer has no emission methods.
        self._trace: Any = trace if trace is not None else NULL_TRACER
        self._records: Dict[int, JournalRecord] = {}
        self._next_id = 0
        self._used = 0
        self.outstanding_gauge = TimeWeightedGauge(start_time=now)
        self.total_appends = 0
        self.total_clears = 0
        self.overflows = 0
        self.high_water_bytes = 0

    # ------------------------------------------------------------------
    # Protocol steps.
    # ------------------------------------------------------------------
    def append(
        self,
        block_name: str,
        sc_id: int,
        slot: int,
        old_data: Payload,
        new_data: Payload,
        nbytes: int,
        now: float,
        version: int = 1,
    ) -> JournalRecord:
        record = JournalRecord(
            record_id=self._next_id,
            block_name=block_name,
            sc_id=sc_id,
            slot=slot,
            old_data=old_data,
            new_data=new_data,
            nbytes=nbytes,
            version=version,
        )
        if self._used + record.journal_bytes > self.capacity:
            if self.strict_capacity:
                raise JournalError(
                    f"journal full: {self._used} + {record.journal_bytes} "
                    f"> {self.capacity}"
                )
            self.overflows += 1
        self._next_id += 1
        self._records[record.record_id] = record
        self._used += record.journal_bytes
        self.high_water_bytes = max(self.high_water_bytes, self._used)
        self.total_appends += 1
        self.outstanding_gauge.adjust(+1, now)
        if self._trace.enabled:
            self._trace.count("journal", self.name, now, len(self._records))
        return record

    def mark_committed(self, record_id: int) -> None:
        record = self._get(record_id)
        if record.state is not RecordState.APPENDED:
            raise JournalError(
                f"record {record_id} committed from state {record.state}"
            )
        record.state = RecordState.COMMITTED

    def mark_acked(self, record_id: int) -> None:
        record = self._get(record_id)
        if record.state is not RecordState.COMMITTED:
            raise JournalError(f"record {record_id} acked from state {record.state}")
        record.state = RecordState.ACKED

    def clear(self, record_id: int, now: float) -> None:
        record = self._get(record_id)
        if record.state is not RecordState.ACKED:
            raise JournalError(
                f"record {record_id} cleared from state {record.state}; "
                "writes clear only after the remote acknowledgment"
            )
        del self._records[record_id]
        self._used -= record.journal_bytes
        self.total_clears += 1
        self.outstanding_gauge.adjust(-1, now)
        if self._trace.enabled:
            self._trace.count("journal", self.name, now, len(self._records))

    # ------------------------------------------------------------------
    # Crash recovery.
    # ------------------------------------------------------------------
    def replay_candidates(self) -> List[JournalRecord]:
        """Uncleared records, oldest first -- the roll-forward input."""
        return sorted(self._records.values(), key=lambda r: r.record_id)

    def drop_all(self, now: float) -> None:
        """Discard the journal content (e.g. after a full roll-forward)."""
        self._records.clear()
        self._used = 0
        self.outstanding_gauge.set(0, now)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._records)

    @property
    def used_bytes(self) -> int:
        return self._used

    def _get(self, record_id: int) -> JournalRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise JournalError(f"unknown journal record {record_id}") from None
