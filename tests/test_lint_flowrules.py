"""Seeded-violation fixtures for the flow-sensitive rule RDP101.

Snippets that must fire sit beside clean snippets encoding the blessed
idiom, so a rule change that stops catching the hazard -- or starts
flagging the fix -- breaks loudly.  The hypothesis test generates
leak/no-leak *pairs* from the same skeleton and checks the rule
separates them on every draw.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.engine import LintConfig, LintEngine
from repro.lint.flowrules import ResourceLeakRule

SIM_PATH = "src/repro/sim/fake.py"


def run_rule(rule, source, path=SIM_PATH):
    engine = LintEngine([rule], LintConfig())
    return engine.lint_source(source, path=path)


def rule_ids(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# RDP101 -- resource leaks.
# ----------------------------------------------------------------------
def test_rdp101_flags_unprotected_span():
    source = (
        "def worker(res, sim):\n"
        "    grant = yield res.request()\n"
        "    yield sim.sleep(1.0)\n"
        "    res.release(grant)\n"
    )
    findings = run_rule(ResourceLeakRule(), source)
    assert rule_ids(findings) == ["RDP101"]
    assert "exception path" in findings[0].message


def test_rdp101_flags_return_path_leak():
    source = (
        "def worker(res, done):\n"
        "    grant = yield res.request()\n"
        "    if done:\n"
        "        return None\n"
        "    res.release(grant)\n"
    )
    findings = run_rule(ResourceLeakRule(), source)
    assert rule_ids(findings) == ["RDP101"]
    assert "return path" in findings[0].message


def test_rdp101_names_the_exception_path_through_an_outer_finally():
    """The inner span's leak leaves through the outer ``finally``, whose
    body is built once for every way in: the normal exit it shares with
    the fault-free path must not make it a return-path leak."""
    source = (
        "def worker(outer, inner, sim):\n"
        "    grant = yield outer.request()\n"
        "    try:\n"
        "        inner_grant = yield inner.request()\n"
        "        yield sim.sleep(1.0)\n"
        "        inner.release(inner_grant)\n"
        "    finally:\n"
        "        outer.release(grant)\n"
        "    return None\n"
    )
    findings = run_rule(ResourceLeakRule(), source)
    assert rule_ids(findings) == ["RDP101"]
    assert "'inner_grant'" in findings[0].message
    assert "exception path" in findings[0].message


def test_rdp101_accepts_try_finally():
    source = (
        "def worker(res, sim):\n"
        "    grant = yield res.request()\n"
        "    try:\n"
        "        yield sim.sleep(1.0)\n"
        "    finally:\n"
        "        res.release(grant)\n"
    )
    assert run_rule(ResourceLeakRule(), source) == []


def test_rdp101_accepts_conditional_acquire_with_guarded_release():
    # The datanode idiom: maybe-acquire, release under the same guard.
    source = (
        "def writer(lock, use_lock, sim):\n"
        "    grant = (yield lock.request()) if use_lock else None\n"
        "    try:\n"
        "        yield sim.sleep(1.0)\n"
        "    finally:\n"
        "        if grant is not None:\n"
        "            lock.release(grant)\n"
    )
    assert run_rule(ResourceLeakRule(), source) == []


def test_rdp101_accepts_ownership_handoff():
    # Passing the grant on decides its fate; the callee owns it now.
    source = (
        "def helper(res, consumer):\n"
        "    grant = yield res.request()\n"
        "    consumer.adopt(grant)\n"
    )
    assert run_rule(ResourceLeakRule(), source) == []


def test_rdp101_flags_leak_on_exception_between_acquires():
    # The recovery.py shape before the fix: nested acquire inside an
    # unprotected span.
    source = (
        "def puller(lock, bus, sim):\n"
        "    grant = yield lock.acquire(0, 10)\n"
        "    bus_grant = yield bus.request()\n"
        "    yield sim.sleep(1.0)\n"
        "    bus.release(bus_grant)\n"
        "    lock.release(grant)\n"
    )
    findings = run_rule(ResourceLeakRule(), source)
    assert rule_ids(findings) == ["RDP101", "RDP101"]


@settings(max_examples=25, deadline=None)
@given(
    sleeps=st.integers(min_value=1, max_value=4),
    protected=st.booleans(),
    resource=st.sampled_from(["res", "lock", "bus"]),
)
def test_rdp101_differential_leak_vs_no_leak(sleeps, protected, resource):
    """The same body, protected vs not, must flip the verdict."""
    body = "".join(f"        yield sim.sleep({i}.0)\n" for i in range(sleeps))
    if protected:
        source = (
            f"def worker({resource}, sim):\n"
            f"    grant = yield {resource}.request()\n"
            "    try:\n"
            f"{body}"
            "    finally:\n"
            f"        {resource}.release(grant)\n"
        )
    else:
        source = (
            f"def worker({resource}, sim):\n"
            f"    grant = yield {resource}.request()\n"
            f"{body.replace('        ', '    ')}"
            f"    {resource}.release(grant)\n"
        )
    findings = run_rule(ResourceLeakRule(), source)
    if protected:
        assert findings == []
    else:
        assert rule_ids(findings) == ["RDP101"]
