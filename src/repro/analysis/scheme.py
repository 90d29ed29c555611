"""One description of a redundancy scheme, read by every §2 argument.

Fig. 1 (:mod:`repro.analysis.design_space`), Table 1
(:mod:`repro.analysis.properties`), the analytic MTTDL ladder and the
Monte-Carlo judge (:mod:`repro.analysis.montecarlo`) all ask the same
questions of a scheme -- what it stores, what a read touches, what a
repair reads, how many losses it survives -- so the answers live here,
once, on :class:`Scheme`, and the consumers cannot disagree.

Repair volumes are normalized to the amount of data lost: 1.0 means the
system reads exactly as much as it lost (the replication ideal);
Reed-Solomon reads ``n`` blocks per lost block.  RAIDP's double-failure
figure interpolates: every superchunk of a failed disk except the shared
one is repaired replication-style (1.0), while the shared superchunk
costs a local-erasure rebuild pulling the disk's other superchunks plus
the Lstor parity.

The :func:`mttdl_* <mttdl_replication>` ladder is the classic
Markov-chain approximation from disk MTTF and rebuild time; it assumes
independent exponential failures, which is what the Monte-Carlo engine
exists to relax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "DurabilityModelError",
    "Scheme",
    "default_schemes",
    "mttdl_erasure",
    "mttdl_raidp",
    "mttdl_replication",
    "paper_schemes",
]


class DurabilityModelError(ReproError):
    """A durability-model configuration is unsatisfiable."""


# ----------------------------------------------------------------------
# Analytic MTTDL (standard Markov-chain approximations).
# ----------------------------------------------------------------------
def mttdl_replication(
    replicas: int, disk_mttf_hours: float, rebuild_hours: float
) -> float:
    """MTTDL of one replica group under independent exponential failures.

    The classic chain: all ``replicas`` copies must fail within each
    other's rebuild windows.  MTTDL ~= MTTF * (MTTF / rebuild)^(r-1) / r!.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    mttdl = disk_mttf_hours
    for stage in range(1, replicas):
        mttdl *= disk_mttf_hours / (rebuild_hours * (stage + 1))
    return mttdl


def mttdl_raidp(
    disk_mttf_hours: float,
    rebuild_hours: float,
    lstors_per_disk: int = 1,
    lstor_mttf_hours: Optional[float] = None,
) -> float:
    """MTTDL of a RAIDP superchunk group (2 replicas + k local parities).

    Data dies only if both replicas fail *and* the parity chain cannot
    cover the loss: with k Lstors the group tolerates k+1 overlapping
    disk failures, so the dominant loss path is k+2 disk failures inside
    one rebuild window, slightly degraded by Lstor unavailability.
    """
    base = mttdl_replication(2 + lstors_per_disk, disk_mttf_hours, rebuild_hours)
    if lstor_mttf_hours is None:
        return base
    # An Lstor dead at the wrong moment removes one level of tolerance;
    # weight the two regimes by the Lstor's availability.
    lstor_unavail = min(rebuild_hours / lstor_mttf_hours, 1.0)
    degraded = mttdl_replication(2, disk_mttf_hours, rebuild_hours)
    return 1.0 / (lstor_unavail / degraded + (1 - lstor_unavail) / base)


def mttdl_erasure(
    n: int, k: int, disk_mttf_hours: float, rebuild_hours: float
) -> float:
    """MTTDL of one n+k stripe: k+1 failures within rebuild windows.

    Uses the same chain as replication but with the stripe width scaling
    the exposure: each stage has (n + k - stage) disks at risk.
    """
    mttdl = disk_mttf_hours / (n + k)
    for stage in range(1, k + 1):
        mttdl *= disk_mttf_hours / (rebuild_hours * (n + k - stage))
    # Normalize: mttdl above is for the first failure anywhere in the
    # stripe; multiply back to per-stripe time scale.
    return mttdl * (n + k)


# ----------------------------------------------------------------------
# The scheme.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scheme:
    """One redundancy scheme: its geometry and every formula over it.

    ``width`` members are placed on ``width`` distinct racks, one
    uniform disk per rack.  ``tolerance`` concurrent permanent losses
    are survivable; ``needed_online`` members must be simultaneously
    online for a read to succeed.  RAIDP carries extra structure: each
    member disk holds ``superchunks_per_disk`` superchunks (the paper's
    *S*) and ``lstors`` co-located parity devices, each the size of one
    superchunk, whose chains span the disk's superchunks -- so surviving
    a both-replicas-dead window requires a chain decode from the *S* - 1
    sibling superchunks' replicas on other disks (tolerating
    ``lstors - 1`` additional source failures beyond the first chain).
    """

    name: str
    kind: str  # "replication" | "raidp" | "erasure"
    width: int
    tolerance: int
    needed_online: int
    lstors: int = 0
    superchunks_per_disk: int = 128

    def __post_init__(self) -> None:
        if self.kind not in ("replication", "raidp", "erasure"):
            raise DurabilityModelError(f"unknown scheme kind {self.kind!r}")
        if self.width < 1 or self.needed_online < 1:
            raise DurabilityModelError("scheme width/needed_online must be >= 1")
        if self.needed_online > self.width:
            raise DurabilityModelError("needed_online cannot exceed width")
        if self.kind == "raidp" and self.lstors < 1:
            raise DurabilityModelError("raidp needs at least one Lstor")
        if self.kind == "raidp" and self.superchunks_per_disk < 1:
            raise DurabilityModelError("raidp needs at least one superchunk per disk")
        if not 0 <= self.tolerance < self.width + self.lstors:
            raise DurabilityModelError(
                f"tolerance {self.tolerance} outside [0, width + lstors)"
            )

    # -- what it stores -------------------------------------------------
    def _capacity_units(self) -> Tuple[int, int]:
        """(raw, useful) capacity in the scheme's own unit."""
        if self.kind == "raidp":
            # Per disk of S superchunks: two replicas of each plus one
            # superchunk-sized parity per Lstor.
            s = self.superchunks_per_disk
            return self.width * s + self.lstors, s
        return self.width, self.needed_online

    @property
    def storage_overhead(self) -> float:
        """Raw bytes consumed per useful byte."""
        raw, useful = self._capacity_units()
        return raw / useful

    @property
    def storage_efficiency(self) -> float:
        """Useful bytes per raw byte (Fig. 1's x axis)."""
        raw, useful = self._capacity_units()
        return useful / raw

    # -- what a read touches --------------------------------------------
    @property
    def readable_copies(self) -> int:
        """Members a read can be served from directly, without a decode."""
        return 1 if self.kind == "erasure" else self.width

    @property
    def degraded_read_blocks(self) -> float:
        """Blocks touched by a read whose primary copy is unavailable."""
        return float(self.needed_online)

    # -- what a repair reads --------------------------------------------
    def repair_volume(self, failures: int = 1) -> float:
        """Bytes read (and moved) per byte lost to ``failures`` disks."""
        if self.kind != "raidp" or failures <= 1:
            # A surviving copy per lost byte, or the n blocks an MDS
            # decode needs per lost block.
            return float(self.needed_online)
        # A double failure loses 2S - 1 distinct superchunks.  The shared
        # one (lost on both disks) is rebuilt from its disk's other S - 1
        # superchunks plus the parity: S reads.  The other 2S - 2 each
        # re-replicate at cost 1.
        s = self.superchunks_per_disk
        return ((2 * s - 2) + s) / (2 * s - 1)

    # -- how long it lasts ----------------------------------------------
    def mttdl_hours(self, disk_mttf_hours: float, rebuild_hours: float) -> float:
        """This scheme's rung of the analytic MTTDL ladder."""
        if self.kind == "replication":
            return mttdl_replication(self.width, disk_mttf_hours, rebuild_hours)
        if self.kind == "raidp":
            return mttdl_raidp(disk_mttf_hours, rebuild_hours, self.lstors)
        return mttdl_erasure(
            self.needed_online, self.tolerance, disk_mttf_hours, rebuild_hours
        )

    # -- the three families ---------------------------------------------
    @staticmethod
    def replication(copies: int, name: Optional[str] = None) -> "Scheme":
        if copies < 2:
            raise DurabilityModelError("replication needs >= 2 copies")
        return Scheme(
            name=name or f"rep{copies}",
            kind="replication",
            width=copies,
            tolerance=copies - 1,
            needed_online=1,
        )

    @staticmethod
    def raidp(
        lstors: int = 1, superchunks_per_disk: int = 128, name: Optional[str] = None
    ) -> "Scheme":
        if name is None:
            name = "raidp" if lstors == 1 else f"raidp({lstors} lstors)"
        return Scheme(
            name=name,
            kind="raidp",
            width=2,
            # Both replicas may die as long as a parity chain still
            # decodes; k Lstors tolerate k-1 further source losses.
            tolerance=1 + lstors,
            needed_online=1,
            lstors=lstors,
            superchunks_per_disk=superchunks_per_disk,
        )

    @staticmethod
    def erasure(n: int, k: int = 2, name: Optional[str] = None) -> "Scheme":
        if n < 2 or k < 1:
            raise DurabilityModelError("erasure needs n >= 2, k >= 1")
        return Scheme(
            name=name or f"ec({n}+{k})",
            kind="erasure",
            width=n + k,
            tolerance=k,
            needed_online=n,
        )


def default_schemes(ec_width: int = 6) -> Tuple[Scheme, ...]:
    """The five §2 contenders on one event stream."""
    return (
        Scheme.replication(2),
        Scheme.replication(3),
        Scheme.raidp(lstors=1),
        Scheme.raidp(lstors=2),
        Scheme.erasure(ec_width, 2),
    )


def paper_schemes(n: int, superchunks_per_disk: int) -> Tuple[Scheme, Scheme, Scheme]:
    """The three schemes Fig. 1 and Table 1 compare.

    In the paper's column order: triplication, n+2 Reed-Solomon, RAIDP
    with *S* superchunks per disk.  All three tolerate double disk
    failures.
    """
    return (
        Scheme.replication(3, name="triplication"),
        Scheme.erasure(n, 2, name="erasure"),
        Scheme.raidp(superchunks_per_disk=superchunks_per_disk),
    )
