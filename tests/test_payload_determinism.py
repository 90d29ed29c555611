"""Cross-process payload determinism (regression for the RDP001 fix).

``ContentFactory.make`` once seeded its RNG with
``hash((seed, name, version))`` -- but ``hash()`` of strings is
randomized per process by ``PYTHONHASHSEED``, so two processes (or a
parallel-runner worker and its parent) generated *different* block
contents for the same logical block.  The fix derives the seed via
``zlib.crc32`` (stable by specification).  These tests pin that down by
actually spawning interpreters with different hash seeds.
"""

import subprocess
import sys
from pathlib import Path

from repro import units
from repro.storage.payload import ContentFactory, _stable_seed

SRC = str(Path(__file__).resolve().parent.parent / "src")

_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.storage.payload import ContentFactory
factory = ContentFactory(seed=7)
payload = factory.make("blk_0001", 3, 65536)
terms = payload ^ factory.make("blk_0002", 1, 65536)
print(payload.checksum(), terms.splice(9, factory.make("u", 1, 99)).checksum())
"""


def _child_checksum(hashseed):
    result = subprocess.run(
        [sys.executable, "-c", _CHILD.format(src=SRC)],
        capture_output=True,
        text=True,
        env={"PYTHONHASHSEED": str(hashseed), "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return result.stdout.strip()


def test_payload_checksum_stable_across_hash_seeds():
    checksums = {_child_checksum(seed) for seed in (0, 1, 424242)}
    assert len(checksums) == 1, (
        "payload content depends on PYTHONHASHSEED; "
        f"got distinct checksums {checksums}"
    )


def test_child_process_matches_parent():
    factory = ContentFactory(seed=7)
    payload = factory.make("blk_0001", 3, 65536)
    terms = payload ^ factory.make("blk_0002", 1, 65536)
    parent = (payload.checksum(), terms.splice(9, factory.make("u", 1, 99)).checksum())
    assert " ".join(map(str, parent)) == _child_checksum(12345)


def test_stable_seed_is_pure_and_collision_spread():
    assert _stable_seed(7, "blk_0001", 3) == _stable_seed(7, "blk_0001", 3)
    seeds = {
        _stable_seed(s, name, v)
        for s in (0, 7)
        for name in ("blk_0001", "blk_0002")
        for v in (1, 2)
    }
    assert len(seeds) == 8  # domain separation: no accidental collisions


def test_checksum_ignores_term_order():
    """A payload draws its terms in set order, which follows the string
    hash; XOR commutes, so the bytes do not.  The child processes above
    draw a multi-term payload under three hash seeds."""
    factory = ContentFactory(seed=7)
    x, y = factory.make("x", 1, 64), factory.make("y", 2, 64)
    assert (x ^ y).checksum() == (y ^ x).checksum()
    assert (x ^ y).checksum() != (x ^ factory.make("y", 3, 64)).checksum()


def test_same_logical_block_same_bytes():
    one = ContentFactory(seed=9).make("b", 1, units.KiB)
    two = ContentFactory(seed=9).make("b", 1, units.KiB)
    assert one.checksum() == two.checksum()
    assert (one.data == two.data).all()
