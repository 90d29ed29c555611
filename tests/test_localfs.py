"""Unit tests for the local-filesystem allocation model."""

import pytest

from repro import units
from repro.errors import DeviceError
from repro.hdfs.localfs import LocalFs
from repro.sim.disk import Disk, DiskGeometry
from repro.sim.engine import Simulator


def make_fs(policy="extent"):
    sim = Simulator()
    disk = Disk(sim, DiskGeometry(), name="d0")
    return sim, disk, LocalFs(sim, disk, policy=policy)


def test_create_and_exists():
    _sim, _disk, fs = make_fs()
    fs.create("f1")
    assert fs.exists("f1")
    assert not fs.exists("f2")
    with pytest.raises(DeviceError):
        fs.create("f1")


def test_fixed_policy_requires_offset():
    _sim, _disk, fs = make_fs(policy="fixed")
    with pytest.raises(DeviceError):
        fs.create("f1")
    fs.create("f2", fixed_offset=units.GiB)
    assert fs.exists("f2")


def test_unknown_policy_rejected():
    sim = Simulator()
    disk = Disk(sim, DiskGeometry())
    with pytest.raises(ValueError):
        LocalFs(sim, disk, policy="zfs")


def test_sequential_appends_are_contiguous():
    sim, disk, fs = make_fs()
    fs.create("f1")

    def body():
        for i in range(4):
            yield from fs.write("f1", i * units.MiB, units.MiB)

    sim.run_process(body())
    assert fs.fragmentation_of("f1") == 1  # merged into one extent
    assert disk.stats.seeks == 0
    assert fs._get("f1").size == 4 * units.MiB


def test_interleaved_writers_stay_sequential_on_extent_policy():
    """The ext4 behaviour the paper leans on: concurrent appenders to
    different files get consecutive extents and the disk never seeks."""
    sim, disk, fs = make_fs()
    fs.create("a")
    fs.create("b")

    def writer(name):
        for i in range(8):
            yield from fs.write(name, i * units.MiB, units.MiB)

    sim.process(writer("a"))
    sim.process(writer("b"))
    sim.run()
    assert disk.stats.seeks == 0
    # Each file is fragmented (extents interleave)...
    assert fs.fragmentation_of("a") > 1
    assert fs.fragmentation_of("b") > 1


def test_interleaved_files_fragment_reads():
    """...and reading one of them back pays the seeks instead (§6.2)."""
    sim, disk, fs = make_fs()
    fs.create("a")
    fs.create("b")

    def writer(name):
        for i in range(8):
            yield from fs.write(name, i * units.MiB, units.MiB)

    sim.process(writer("a"))
    sim.process(writer("b"))
    sim.run()
    before = disk.stats.seeks

    def reader():
        yield from fs.read("a", 0, 8 * units.MiB)

    sim.process(reader())
    sim.run()
    assert disk.stats.seeks > before


def test_fixed_offsets_cause_ping_pong_seeks():
    """RAIDP's preallocated files: interleaved writers bounce the head."""
    sim, disk, fs = make_fs(policy="fixed")
    fs.create("a", fixed_offset=0)
    fs.create("b", fixed_offset=500 * units.GiB)

    def writer(name):
        for i in range(8):
            yield from fs.write(name, i * units.MiB, units.MiB)

    sim.process(writer("a"))
    sim.process(writer("b"))
    sim.run()
    assert disk.stats.seeks >= 14  # nearly every I/O jumps superchunks


def test_overwrite_hits_same_physical_location():
    sim, disk, fs = make_fs()
    fs.create("f")

    def body():
        yield from fs.write("f", 0, units.MiB)
        frontier_after_first = fs._frontier
        yield from fs.write("f", 0, units.MiB)  # overwrite, no new alloc
        return frontier_after_first

    frontier = sim.run_process(body())
    assert fs._frontier == frontier


def test_sparse_write_rejected():
    sim, _disk, fs = make_fs()
    fs.create("f")

    def body():
        yield from fs.write("f", 10 * units.MiB, units.MiB)

    sim.process(body())
    with pytest.raises(DeviceError):
        sim.run()


def test_delete_recycles_space():
    sim, _disk, fs = make_fs()
    fs.create("a")

    def fill():
        yield from fs.write("a", 0, 4 * units.MiB)

    sim.run_process(fill())
    frontier = fs._frontier
    fs.delete("a")
    fs.create("b")

    def refill():
        yield from fs.write("b", 0, 4 * units.MiB)

    sim.run_process(refill())
    # Reused the freed extent instead of advancing the frontier.
    assert fs._frontier == frontier


def test_read_past_eof_rejected():
    sim, _disk, fs = make_fs()
    fs.create("f")

    def body():
        yield from fs.write("f", 0, units.MiB)
        yield from fs.read("f", 0, 2 * units.MiB)

    sim.process(body())
    with pytest.raises(DeviceError):
        sim.run()


def test_fixed_file_reads_at_fixed_offset():
    sim, disk, fs = make_fs(policy="fixed")
    base = 100 * units.GiB
    fs.create("f", fixed_offset=base)

    def body():
        yield from fs.write("f", units.MiB, units.MiB)
        yield from fs.read("f", units.MiB, units.MiB)

    sim.run_process(body())
    # Head ends where the read ended: base + 2 MiB.
    assert disk.head == base + 2 * units.MiB


def test_disk_full_raises():
    sim = Simulator()
    disk = Disk(sim, DiskGeometry(capacity=units.MiB), name="tiny")
    fs = LocalFs(sim, disk)
    fs.create("f")

    def body():
        yield from fs.write("f", 0, 2 * units.MiB)

    sim.process(body())
    with pytest.raises((DeviceError, ValueError)):
        sim.run()
