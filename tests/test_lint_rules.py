"""Positive/negative snippet tests for every RDP rule.

Each rule gets at least one snippet that must fire and one that must
stay silent; the negatives encode the blessed idioms (seeded RNGs,
``sorted(...)`` wrapping, ``fsum``) so a future rule change that starts
flagging them breaks loudly here.
"""

from repro.lint.engine import FileContext, LintConfig, LintEngine
from repro.lint.rules import (
    AnnotationRule,
    BlockingCallRule,
    FloatSumRule,
    TraceTaxonomyRule,
    UnorderedIterationRule,
    WallClockRule,
    default_rules,
)

SIM_PATH = "src/repro/sim/fake.py"
CORE_PATH = "src/repro/core/fake.py"


def run_rule(rule, source, path=SIM_PATH):
    engine = LintEngine([rule], LintConfig())
    return engine.lint_source(source, path=path)


# ----------------------------------------------------------------------
# RDP001 -- wall clock / entropy.
# ----------------------------------------------------------------------
def test_rdp001_flags_time_time():
    findings = run_rule(WallClockRule(), "import time\nt = time.time()\n")
    assert [f.rule for f in findings] == ["RDP001"]


def test_rdp001_flags_module_level_random():
    findings = run_rule(WallClockRule(), "import random\nx = random.random()\n")
    assert len(findings) == 1
    assert "seeded" in findings[0].message


def test_rdp001_flags_unseeded_rng_constructors():
    source = (
        "import random\nimport numpy as np\n"
        "a = random.Random()\n"
        "b = np.random.default_rng()\n"
    )
    findings = run_rule(WallClockRule(), source)
    assert len(findings) == 2


def test_rdp001_flags_hash_outside_hash_method():
    findings = run_rule(WallClockRule(), "key = hash(('a', 1))\n")
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
    assert run_rule(WallClockRule(), source) == []


# ----------------------------------------------------------------------
# RDP002 -- unordered iteration.
# ----------------------------------------------------------------------
def test_rdp002_flags_for_over_set():
    source = "pending = {'a', 'b'}\nfor name in pending:\n    print(name)\n"
    findings = run_rule(UnorderedIterationRule(), source)
    assert [f.rule for f in findings] == ["RDP002"]


def test_rdp002_flags_list_of_set():
    findings = run_rule(UnorderedIterationRule(), "order = list({'a', 'b'})\n")
    assert len(findings) == 1
    assert "sorted" in findings[0].message


def test_rdp002_flags_comprehension_over_set_call():
    source = "names = [n for n in set(['b', 'a'])]\n"
    findings = run_rule(UnorderedIterationRule(), source)
    assert len(findings) == 1


def test_rdp002_allows_sorted_and_order_insensitive_consumers():
    source = (
        "pending = {'a', 'b'}\n"
        "for name in sorted(pending):\n"
        "    print(name)\n"
        "total = sum(len(n) for n in pending)\n"
        "count = len(pending)\n"
    )
    assert run_rule(UnorderedIterationRule(), source) == []


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
    findings = run_rule(UnorderedIterationRule(), source)
    assert len(findings) == 1
    assert findings[0].line == 3


def test_rdp002_keys_iteration_is_a_warning():
    source = "d = {'a': 1}\nfor k in d.keys():\n    print(k)\n"
    findings = run_rule(UnorderedIterationRule(), source)
    assert [f.severity for f in findings] == ["warning"]


# ----------------------------------------------------------------------
# RDP003 -- blocking / OS calls in the simulated data plane.
# ----------------------------------------------------------------------
def test_rdp003_flags_threading_import_and_sleep():
    source = "import threading\nimport time\ntime.sleep(1)\n"
    findings = run_rule(BlockingCallRule(), source, path=SIM_PATH)
    assert {f.rule for f in findings} == {"RDP003"}
    assert len(findings) == 2  # the import and the sleep (not `import time`)


def test_rdp003_flags_raw_open():
    findings = run_rule(BlockingCallRule(), "f = open('x')\n", path=CORE_PATH)
    assert len(findings) == 1


def test_rdp003_only_applies_inside_the_data_plane():
    source = "import subprocess\n"
    assert run_rule(BlockingCallRule(), source, path="src/repro/tools/cli.py") == []
    assert run_rule(BlockingCallRule(), source, path=SIM_PATH) != []


# ----------------------------------------------------------------------
# RDP004 -- trace taxonomy.
# ----------------------------------------------------------------------
def test_rdp004_flags_unregistered_category():
    rule = TraceTaxonomyRule(categories=frozenset({"disk"}))
    source = "trace.complete('warp', 'read', 0.0, 1.0)\n"
    findings = run_rule(rule, source)
    assert len(findings) == 1
    assert "'warp'" in findings[0].message


def test_rdp004_allows_registered_category_and_non_tracer_receivers():
    rule = TraceTaxonomyRule(categories=frozenset({"disk"}))
    source = (
        "trace.complete('disk', 'read', 0.0, 1.0)\n"
        "self.sim.trace.instant('disk', 'spin', 0.0)\n"
        "registry.complete('warp', 'x', 0.0, 1.0)\n"  # not a tracer
    )
    assert run_rule(rule, source) == []


def test_rdp004_default_taxonomy_accepts_repo_categories():
    source = "trace.complete('recovery', 'window', 0.0, 1.0)\n"
    assert run_rule(TraceTaxonomyRule(), source) == []


# ----------------------------------------------------------------------
# RDP005 -- float accumulation.
# ----------------------------------------------------------------------
def test_rdp005_flags_bare_sum_of_floats():
    source = "xs = [0.1, 0.2]\nmean = sum(xs) / len(xs)\n"
    findings = run_rule(FloatSumRule(), source)
    assert len(findings) == 1
    assert "fsum" in findings[0].message


def test_rdp005_flags_sum_of_division_results():
    findings = run_rule(FloatSumRule(), "t = sum(x / 2 for x in items)\n")
    assert len(findings) == 1


def test_rdp005_allows_fsum_and_integer_sums():
    source = (
        "from math import fsum\n"
        "mean = fsum(xs) / len(xs)\n"
        "count = sum(counts)\n"
    )
    assert run_rule(FloatSumRule(), source) == []


def test_rdp005_scoped_to_stats_code():
    source = "mean = sum(xs) / len(xs)\n"
    assert run_rule(FloatSumRule(), source, path="src/repro/tools/x.py") == []


# ----------------------------------------------------------------------
# RDP006 -- annotation completeness.
# ----------------------------------------------------------------------
def test_rdp006_flags_unannotated_public_function():
    findings = run_rule(AnnotationRule(), "def compute(a, b):\n    return a\n")
    assert len(findings) == 1
    assert "a, b, return" in findings[0].message


def test_rdp006_flags_missing_return_and_star_args():
    source = "def f(a: int, *args, **kw) -> None:\n    pass\n"
    findings = run_rule(AnnotationRule(), source)
    assert "*args" in findings[0].message
    assert "**kw" in findings[0].message


def test_rdp006_allows_fully_annotated_and_private():
    source = (
        "class C:\n"
        "    def __init__(self, n: int) -> None:\n"
        "        self.n = n\n"
        "    def get(self) -> int:\n"
        "        return self.n\n"
        "    def _internal(self, x):\n"
        "        return x\n"
        "def _helper(y):\n"
        "    return y\n"
    )
    assert run_rule(AnnotationRule(), source) == []


def test_rdp006_scoped_to_core_and_sim():
    source = "def compute(a, b):\n    return a\n"
    assert run_rule(AnnotationRule(), source, path="src/repro/tools/x.py") == []


# ----------------------------------------------------------------------
# The default rule set.
# ----------------------------------------------------------------------
def test_default_rules_cover_all_registered_ids():
    ids = [rule.id for rule in default_rules()]
    assert ids == [
        "RDP001",
        "RDP002",
        "RDP003",
        "RDP004",
        "RDP005",
        "RDP006",
        "RDP101",
    ]
