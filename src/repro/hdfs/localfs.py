"""Local-filesystem allocation model for one disk.

Two allocation policies reproduce the behaviour the paper leans on
(Section 5, "Optimizations"):

- **extent** (ext4-like): physical space is assigned at write time from
  an allocation frontier (or the free list after deletions).  Several
  files being appended concurrently receive *interleaved but consecutive*
  extents, so the disk streams sequentially -- this is why baseline HDFS
  pays no seek penalty for concurrent block writes on a fresh filesystem.
- **fixed**: files are preallocated at fixed physical offsets (RAIDP's
  superchunk directories).  Writes always land at their preassigned
  location, so interleaved writers "ping-pong" the head between
  superchunks unless a higher layer serializes them.

Files are extent lists; reads walk the extents, paying seeks whenever the
physical layout is discontiguous -- which is how previously-interleaved
writes come back to bite sequential readers (paper §6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import DeviceError
from repro.sim.disk import Disk
from repro.sim.engine import Simulator
from repro.sim.snapshot import InlineState


@dataclass
class _Extent(InlineState):
    """One contiguous physical run backing part of a file."""

    file_offset: int
    disk_offset: int
    length: int

    @property
    def file_end(self) -> int:
        return self.file_offset + self.length


@dataclass
class _File(InlineState):
    name: str
    extents: List[_Extent] = field(default_factory=list)
    fixed_base: Optional[int] = None
    size: int = 0


class LocalFs(InlineState):
    """Extent-mapped files over one simulated disk."""

    def __init__(self, sim: Simulator, disk: Disk, policy: str = "extent") -> None:
        if policy not in ("extent", "fixed"):
            raise ValueError(f"unknown allocation policy {policy!r}")
        self.sim = sim
        self.disk = disk
        self.policy = policy
        self._files: Dict[str, _File] = {}
        self._frontier = 0
        self._free: List[Tuple[int, int]] = []  # (offset, length), sorted

    # ------------------------------------------------------------------
    # Namespace.
    # ------------------------------------------------------------------
    def create(self, name: str, fixed_offset: Optional[int] = None) -> None:
        """Create an empty file.

        ``fixed_offset`` pins the file to a physical location (RAIDP's
        preallocated superchunk slots); required iff policy is "fixed".
        """
        if name in self._files:
            raise DeviceError(f"file {name!r} already exists on {self.disk.name}")
        if self.policy == "fixed" and fixed_offset is None:
            raise DeviceError("fixed policy requires a fixed_offset")
        self._files[name] = _File(name=name, fixed_base=fixed_offset)

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        """Remove a file, returning its extents to the free list."""
        file = self._get(name)
        del self._files[name]
        if file.fixed_base is None:
            for extent in file.extents:
                self._free.append((extent.disk_offset, extent.length))
            self._free.sort()
            self._coalesce_free()

    def _coalesce_free(self) -> None:
        merged: List[Tuple[int, int]] = []
        for offset, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((offset, length))
        self._free = merged

    def _get(self, name: str) -> _File:
        try:
            return self._files[name]
        except KeyError:
            raise DeviceError(f"no such file {name!r} on {self.disk.name}") from None

    # ------------------------------------------------------------------
    # Allocation.
    # ------------------------------------------------------------------
    def _allocate(self, nbytes: int) -> int:
        """Assign physical space: free list first-fit, else the frontier."""
        for index, (offset, length) in enumerate(self._free):
            if length >= nbytes:
                if length == nbytes:
                    del self._free[index]
                else:
                    self._free[index] = (offset + nbytes, length - nbytes)
                return offset
        offset = self._frontier
        if offset + nbytes > self.disk.geometry.capacity:
            raise DeviceError(f"disk {self.disk.name} is full")
        self._frontier += nbytes
        return offset

    def _physical_for_write(self, file: _File, file_offset: int, nbytes: int) -> int:
        """Physical offset for a write, allocating if necessary."""
        if file.fixed_base is not None:
            return file.fixed_base + file_offset
        # Overwrite of an existing extent region?
        for extent in file.extents:
            if extent.file_offset <= file_offset < extent.file_end:
                if file_offset + nbytes > extent.file_end:
                    raise DeviceError("write straddles extents; split it")
                return extent.disk_offset + (file_offset - extent.file_offset)
        if file_offset != file.size:
            raise DeviceError(
                f"sparse write to {file.name!r}: offset {file_offset}, size {file.size}"
            )
        disk_offset = self._allocate(nbytes)
        # Merge with the previous extent when physically contiguous.
        if (
            file.extents
            and file.extents[-1].file_end == file_offset
            and file.extents[-1].disk_offset + file.extents[-1].length == disk_offset
        ):
            file.extents[-1].length += nbytes
        else:
            file.extents.append(_Extent(file_offset, disk_offset, nbytes))
        return disk_offset

    # ------------------------------------------------------------------
    # I/O (process bodies).
    # ------------------------------------------------------------------
    def write(self, name: str, file_offset: int, nbytes: int) -> Generator:
        """Write ``nbytes`` at ``file_offset``; charges disk time."""
        file = self._get(name)
        disk_offset = self._physical_for_write(file, file_offset, nbytes)
        yield from self.disk.write(disk_offset, nbytes)
        file.size = max(file.size, file_offset + nbytes)
        return None

    def read(self, name: str, file_offset: int, nbytes: int) -> Generator:
        """Read a byte range, walking extents (seeks between fragments)."""
        file = self._get(name)
        if file_offset + nbytes > file.size and file.fixed_base is None:
            raise DeviceError(
                f"read past EOF of {file.name!r}: "
                f"{file_offset}+{nbytes} > {file.size}"
            )
        if file.fixed_base is not None:
            yield from self.disk.read(file.fixed_base + file_offset, nbytes)
            return None
        remaining = nbytes
        cursor = file_offset
        for extent in file.extents:
            if remaining == 0:
                break
            if extent.file_end <= cursor or extent.file_offset >= cursor + remaining:
                continue
            start_in_extent = max(cursor, extent.file_offset)
            run = min(extent.file_end - start_in_extent, remaining)
            physical = extent.disk_offset + (start_in_extent - extent.file_offset)
            yield from self.disk.read(physical, run)
            cursor += run
            remaining -= run
        if remaining:
            raise DeviceError(f"file {file.name!r} has a hole at {cursor}")
        return None

    def read_modify_write(
        self,
        name: str,
        file_offset: int,
        nbytes: int,
        read_bytes: Optional[int] = None,
    ) -> Generator:
        """Read then rewrite a region with no intervening I/O.

        Only supported for fixed-offset files (the RAIDP superchunk
        path); extent files would need per-extent splitting, which no
        caller requires.  ``read_bytes`` limits the media read (cache).
        """
        file = self._get(name)
        if file.fixed_base is None:
            raise DeviceError("read_modify_write requires a fixed-offset file")
        yield from self.disk.read_modify_write(
            file.fixed_base + file_offset, nbytes, read_bytes=read_bytes
        )
        file.size = max(file.size, file_offset + nbytes)
        return None

    def sync(self) -> Generator:
        yield from self.disk.sync()
        return None

    # ------------------------------------------------------------------
    # Introspection for tests.
    # ------------------------------------------------------------------
    def fragmentation_of(self, name: str) -> int:
        """Number of physical extents backing the file."""
        return len(self._get(name).extents)
