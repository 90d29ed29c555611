"""Tests for the SSD geometry (paper §8)."""

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.hdfs.config import DfsConfig
from repro.sim.cluster import ClusterSpec
from repro.sim.disk import Disk, DiskGeometry, ssd_geometry
from repro.sim.engine import Simulator
from repro.workloads.dfsio import dfsio_write


# ----------------------------------------------------------------------
# SSD geometry.
# ----------------------------------------------------------------------
def test_ssd_random_io_is_cheap():
    sim = Simulator()
    ssd = Disk(sim, ssd_geometry(), name="ssd")

    def body():
        sequential = yield from ssd.write(0, units.MiB)
        random = yield from ssd.write(500 * units.GB, units.MiB)
        return sequential, random

    sequential, random = sim.run_process(body())
    assert random < sequential * 1.1  # near-parity, unlike an HDD


def test_ssd_shrinks_raidp_random_io_penalty():
    """Paper §8: 'upgrading to SSDs will likely reduce the amount of
    performance impact that random I/O currently has in our workloads.'
    The unoptimized/optimized gap collapses on flash."""

    def gap(geometry):
        runtimes = {}
        for optimized in (True, False):
            dfs = RaidpCluster(
                spec=ClusterSpec(num_nodes=8, disk_geometry=geometry),
                config=DfsConfig(replication=2),
                raidp=RaidpConfig(
                    optimized=optimized,
                    enable_parity=False,
                    enable_journal=False,
                ),
            )
            runtimes[optimized] = dfsio_write(dfs, units.GiB).runtime
        return runtimes[False] / runtimes[True]

    hdd_gap = gap(DiskGeometry())
    ssd_gap = gap(ssd_geometry())
    assert ssd_gap < hdd_gap
    assert ssd_gap < 1.3  # near-parity on flash
