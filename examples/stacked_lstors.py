#!/usr/bin/env python3
"""Stacked Lstors: k parities per disk tolerate k+1 simultaneous failures.

The paper's §3.3 extension: instead of one XOR Lstor, stack k Lstors per
disk holding Reed-Solomon parity rows over the disk's superchunks.  This
example builds a disk image with two stacked Lstors, erases *two*
superchunks of the same disk (the situation a triple disk failure can
create), and reconstructs both bit-for-bit.  The rows are GF(256)
combinations of the blocks' mint terms, so the whole run draws no byte:
a rebuilt block equals its original term for term.

Run:  python examples/stacked_lstors.py
"""

from repro import units
from repro.core.lstor import Lstor
from repro.sim.engine import Simulator
from repro.storage.payload import ContentFactory


def main() -> None:
    sim = Simulator()
    factory = ContentFactory()
    block_size = 256 * units.KiB
    superchunks = 6  # superchunks on this disk = RS data shards
    blocks_per_superchunk = 4

    stack = Lstor(
        sim,
        factory,
        name="d0.lstors",
        block_size=block_size,
        data_shards=superchunks,
        parity_count=2,  # two stacked Lstors -> survives 3 disk failures
    )

    # Fill the disk: every superchunk gets content, parities absorb it.
    contents = {}
    for shard in range(superchunks):
        for slot in range(blocks_per_superchunk):
            payload = factory.make(f"sc{shard}-blk{slot}", 1, block_size)
            stack.absorb_update(
                shard, slot, factory.zero(block_size), payload
            )
            contents[(shard, slot)] = payload
    print(
        f"disk with {superchunks} superchunks x {blocks_per_superchunk} blocks, "
        f"{stack.parity_count} stacked Lstors"
    )

    # A triple failure can cost this disk two shared superchunks at once.
    lost = [1, 4]
    print(f"erasing superchunks {lost} (both copies gone cluster-wide)")
    for slot in range(blocks_per_superchunk):
        survivors = {
            shard: contents[(shard, slot)]
            for shard in range(superchunks)
            if shard not in lost
        }
        rebuilt = stack.reconstruct_block(slot, survivors, missing_shards=lost)
        for shard in lost:
            original = contents[(shard, slot)]
            assert rebuilt[shard] == original, f"sc{shard} slot {slot} mismatch"
    print("both superchunks reconstructed bit-for-bit from the RS parities")

    # One Lstor of the stack may itself die: a single parity still covers
    # a single superchunk loss.
    stack.devices[1].fail()
    for slot in range(blocks_per_superchunk):
        survivors = {
            shard: contents[(shard, slot)]
            for shard in range(superchunks)
            if shard != 2
        }
        rebuilt = stack.reconstruct_block(slot, survivors, missing_shards=[2])
        assert rebuilt[2] == contents[(2, slot)]
    print("with one Lstor dead, the surviving parity still recovers one loss")


if __name__ == "__main__":
    main()
