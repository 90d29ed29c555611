"""End-to-end determinism: identical seeds give bit-identical runs.

Reproducibility is a core requirement (every experiment must regenerate
exactly); these tests pin it at the workload level, and give each rule
of the static checker (``tests/determinism.py``) snippets that must fire
and snippets that must stay silent.  The silent ones encode the blessed
idioms (seeded RNGs, ``sorted(...)`` wrapping); the historical bugs,
re-seeded into the real files, are in ``tests/test_lint_tree.py``.
"""

from repro import units
from repro.core.cluster import RaidpCluster
from repro.core.node import RaidpConfig
from repro.hdfs.config import DfsConfig
from repro.hdfs.filesystem import HdfsCluster
from repro.sim.cluster import ClusterSpec
from repro.workloads.dfsio import dfsio_read, dfsio_write
from repro.workloads.terasort import teragen, terasort
from tests.determinism import check


def run_raidp(seed):
    dfs = RaidpCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(replication=2),
        raidp=RaidpConfig(),
        seed=seed,
    )
    write = dfsio_write(dfs, units.GiB)
    read = dfsio_read(dfs)
    placements = tuple(
        (loc.block.name, tuple(loc.datanodes), loc.sc_id, loc.slot)
        for loc in dfs.namenode.all_blocks()
    )
    return (write.runtime, write.network_bytes, read.runtime, placements)


def run_hdfs(seed):
    dfs = HdfsCluster(
        spec=ClusterSpec(num_nodes=8),
        config=DfsConfig(replication=3),
        seed=seed,
    )
    teragen(dfs, units.GiB)
    result = terasort(dfs, units.GiB)
    return (result.runtime, result.network_bytes, result.disk_seeks)


def test_raidp_run_is_deterministic():
    assert run_raidp(seed=42) == run_raidp(seed=42)


def test_different_seeds_change_placement():
    first = run_raidp(seed=1)
    second = run_raidp(seed=2)
    assert first[3] != second[3]  # placements differ


def test_hdfs_terasort_is_deterministic():
    assert run_hdfs(seed=7) == run_hdfs(seed=7)


SIM_PATH = "src/repro/sim/fake.py"


# ----------------------------------------------------------------------
# RDP001 -- wall clock / entropy.
# ----------------------------------------------------------------------
def test_rdp001_flags_time_time():
    findings = check("import time\nt = time.time()\n", SIM_PATH)
    assert [f.rule for f in findings] == ["RDP001"]


def test_rdp001_flags_module_level_random():
    findings = check("import random\nx = random.random()\n", SIM_PATH)
    assert len(findings) == 1
    assert "seeded" in findings[0].message


def test_rdp001_flags_unseeded_rng_constructors():
    source = (
        "import random\nimport numpy as np\n"
        "a = random.Random()\n"
        "b = np.random.default_rng()\n"
    )
    findings = check(source, SIM_PATH)
    assert len(findings) == 2


def test_rdp001_flags_hash_outside_hash_method():
    findings = check("key = hash(('a', 1))\n", SIM_PATH)
    assert [f.rule for f in findings] == ["RDP001"]


def test_rdp001_allows_seeded_rngs_and_dunder_hash():
    source = (
        "import random\nimport numpy as np\n"
        "a = random.Random(42)\n"
        "b = np.random.default_rng(7)\n"
        "class Key:\n"
        "    def __hash__(self):\n"
        "        return hash(self.__dict__['v'])\n"
    )
    assert check(source, SIM_PATH) == []


def test_rdp001_skips_the_profilers():
    source = "import time\nt = time.perf_counter()\n"
    assert check(source, "src/repro/tools/profile.py") == []
    assert check(source, "src/repro/obs/simprofile.py") == []
    assert [f.rule for f in check(source, "src/repro/tools/chaos.py")] == ["RDP001"]


# ----------------------------------------------------------------------
# RDP002 -- unordered iteration.
# ----------------------------------------------------------------------
def test_rdp002_flags_for_over_set():
    source = "pending = {'a', 'b'}\nfor name in pending:\n    print(name)\n"
    findings = check(source, SIM_PATH)
    assert [f.rule for f in findings] == ["RDP002"]


def test_rdp002_flags_list_of_set():
    findings = check("order = list({'a', 'b'})\n", SIM_PATH)
    assert len(findings) == 1
    assert "sorted" in findings[0].message


def test_rdp002_flags_comprehension_over_set_call():
    source = "names = [n for n in set(['b', 'a'])]\n"
    findings = check(source, SIM_PATH)
    assert len(findings) == 1


def test_rdp002_allows_sorted_and_order_insensitive_consumers():
    source = (
        "pending = {'a', 'b'}\n"
        "for name in sorted(pending):\n"
        "    print(name)\n"
        "total = sum(len(n) for n in pending)\n"
        "count = len(pending)\n"
    )
    assert check(source, SIM_PATH) == []


def test_rdp002_set_tracking_is_function_scoped():
    # `items` is a set in f() but a list in g(); only f's loop fires.
    source = (
        "def f():\n"
        "    items = {'a'}\n"
        "    for x in items:\n"
        "        print(x)\n"
        "def g():\n"
        "    items = ['a']\n"
        "    for x in items:\n"
        "        print(x)\n"
    )
    findings = check(source, SIM_PATH)
    assert len(findings) == 1
    assert findings[0].line == 3
