"""Fig. 1: the storage-efficiency vs repair-efficiency design space.

Storage efficiency is useful bytes over raw bytes.  Repair efficiency is
the reciprocal of normalized repair traffic (1.0 = the replication
ideal).  RAIDP lands between triplication and erasure coding on storage,
and at (single failure) or near (double failure) replication on repair --
the "middle point" the paper's introduction claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.scheme import paper_schemes


@dataclass(frozen=True)
class DesignPoint:
    """One scheme's coordinates in the Fig. 1 plane."""

    scheme: str
    storage_efficiency: float  # useful / raw capacity
    repair_efficiency_single: float  # 1 / normalized repair traffic
    repair_efficiency_double: float

    def row(self) -> str:
        return (
            f"{self.scheme:<14} storage={self.storage_efficiency:.3f} "
            f"repair(1)={self.repair_efficiency_single:.3f} "
            f"repair(2)={self.repair_efficiency_double:.3f}"
        )


def design_space_points(
    n: int = 10, superchunks_per_disk: int = 15
) -> List[DesignPoint]:
    """Compute the three schemes' Fig. 1 coordinates."""
    return [
        DesignPoint(
            scheme=scheme.name,
            storage_efficiency=scheme.storage_efficiency,
            repair_efficiency_single=1.0 / scheme.repair_volume(1),
            repair_efficiency_double=1.0 / scheme.repair_volume(2),
        )
        for scheme in paper_schemes(n, superchunks_per_disk)
    ]


def verify_middle_point(points: List[DesignPoint]) -> bool:
    """The paper's Fig. 1 claim: RAIDP sits between the two extremes."""
    by_name = {p.scheme: p for p in points}
    trip, ec, raidp = by_name["triplication"], by_name["erasure"], by_name["raidp"]
    storage_between = trip.storage_efficiency < raidp.storage_efficiency < ec.storage_efficiency
    repair_single_at_ideal = raidp.repair_efficiency_single == trip.repair_efficiency_single
    repair_double_between = (
        ec.repair_efficiency_double
        < raidp.repair_efficiency_double
        <= trip.repair_efficiency_double
    )
    return storage_between and repair_single_at_ideal and repair_double_between
