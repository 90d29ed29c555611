"""Section 4: feasibility and cost of trading a third replica for Lstors.

Three models, all parameterized with the paper's December-2019 price
points so the tests can assert the paper's headline numbers:

- :class:`LstorBom` -- the Lstor bill of materials (flash + DRAM, a
  micro-controller, a supercapacitor and enclosure).
- :class:`ServerExample` -- derived per-disk cost of a storage server
  (the paper's hyper-converged and SuperMicro examples).
- :class:`DatacenterCostModel` -- the Fig. 7 TCO breakdown and the
  replication-factor savings bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class LstorBom:
    """Cost of building one Lstor (December 2019 street prices)."""

    flash_and_dram: float = 9.0  # 4 GB flash + 4 GB DRAM [DRAMeXchange]
    microcontroller: float = 5.0  # Raspberry-Pi-Zero-class part
    supercap_and_enclosure: float = 16.0  # power hold-up + SATA interposer

    @property
    def total(self) -> float:
        return self.flash_and_dram + self.microcontroller + self.supercap_and_enclosure


@dataclass(frozen=True)
class ServerExample:
    """Derived per-disk cost of a storage server configuration."""

    name: str
    server_cost: float
    num_disks: int
    disk_street_price: float

    @property
    def direct_disk_cost(self) -> float:
        return self.disk_street_price

    @property
    def derived_disk_cost(self) -> float:
        """Disk cost including its share of the enclosing server."""
        attached = self.server_cost - self.num_disks * self.disk_street_price
        return self.disk_street_price + attached / self.num_disks

    @property
    def derived_multiplier(self) -> float:
        return self.derived_disk_cost / self.direct_disk_cost


#: The paper's two concrete server examples (§4).
HYPERCONVERGED = ServerExample(
    name="hyper-converged", server_cost=20_000.0, num_disks=6, disk_street_price=150.0
)
SUPERMICRO = ServerExample(
    name="supermicro-6048r", server_cost=23_000.0, num_disks=72, disk_street_price=125.0
)

#: Fig. 7: Amazon's datacenter cost breakdown [Hamilton 2010].
FIG7_BREAKDOWN: Dict[str, float] = {
    "servers": 0.57,
    "networking equipment": 0.08,
    "power distribution & cooling": 0.18,
    "power": 0.13,
    "other infrastructure": 0.04,
}


@dataclass(frozen=True)
class DatacenterCostModel:
    """TCO of a replicated storage fleet, scalable with replica count.

    The paper argues all major cost components scale roughly linearly
    with the number of disks, so dropping the third replica saves up to
    1/3 of TCO, minus the cost of the Lstors added to the remaining two
    replicas.
    """

    breakdown: Dict[str, float] = field(default_factory=lambda: dict(FIG7_BREAKDOWN))
    derived_disk_cost: float = HYPERCONVERGED.derived_disk_cost
    lstor: LstorBom = field(default_factory=LstorBom)

    def __post_init__(self) -> None:
        total = sum(self.breakdown.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"breakdown must sum to 1.0, got {total}")

    def infrastructure_overhead_fraction(self) -> float:
        """Non-server share of TCO (the paper's 43%)."""
        return 1.0 - self.breakdown["servers"]

    def tco_per_useful_disk(self, replication: int, lstors_per_disk: int = 0) -> float:
        """Disk-proportional TCO of storing one disk's worth of data.

        ``replication`` disks carry the data; each carries
        ``lstors_per_disk`` Lstors.  Server-attached and facility costs
        ride on the derived disk cost; Lstors add only their BOM (they
        draw negligible power and space, §4).
        """
        if replication < 1:
            raise ValueError("replication must be >= 1")
        disks = replication * self.derived_disk_cost / self.breakdown["servers"]
        lstors = replication * lstors_per_disk * self.lstor.total
        return disks + lstors

    def raidp_savings_fraction(self) -> float:
        """TCO saved by 2 replicas + 2 Lstors over triplication."""
        triplication = self.tco_per_useful_disk(replication=3)
        raidp = self.tco_per_useful_disk(replication=2, lstors_per_disk=1)
        return 1.0 - raidp / triplication

    def lstor_pair_vs_third_replica(self) -> float:
        """Direct purchase: third disk cost over the cost of two Lstors."""
        return self.derived_disk_cost / (2 * self.lstor.total)


def fig7_rows() -> Dict[str, float]:
    """The Fig. 7 pie chart data."""
    return dict(FIG7_BREAKDOWN)
