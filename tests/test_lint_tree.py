"""End-to-end determinism and typing gates over the real source tree.

These are the tests that make the invariants *stick*: the whole of
``src/`` must pass the determinism checker (``tests/determinism.py``),
every annotation in the strict packages must actually resolve (a
missing import hidden by ``from __future__ import annotations`` fails
here, the way it once did for ``repro.obs.tracer``), and each historical
defect re-seeded into the real file must be caught again, by the checker
or by the simulator's grant ledger.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import types
from pathlib import Path
from typing import get_type_hints

import pytest

import repro.analysis
import repro.core
import repro.sim
from repro import units
from repro.core import recovery
from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import ProcessInterrupt, Simulator
from tests.determinism import check, check_paths
from tests.test_recovery import pick_sharing_pair, sparse_cluster, write_some_data

SRC = Path(__file__).resolve().parent.parent / "src"


def test_source_tree_lints_clean():
    findings = check_paths([str(SRC)])
    assert findings == [], "\n".join(findings)


# ----------------------------------------------------------------------
# The kept checks, pinned to the bugs that justify them: each historical
# defect (DESIGN.md 7.3, 10) is re-seeded into the *real* file by text
# substitution and must be caught again.
# ----------------------------------------------------------------------
def _mutated(relative, original, replacement):
    """(path, pristine source, source with the defect re-seeded)."""
    path = SRC / "repro" / relative
    source = path.read_text(encoding="utf-8")
    assert source.count(original) == 1, f"{relative} no longer has {original!r}"
    return str(path), source, source.replace(original, replacement)


def _lines_of(source, text):
    return [n for n, line in enumerate(source.splitlines(), 1) if line.strip() == text]


def _flatten_try_finally(source, acquire):
    """Dedent the ``try: ... finally: ...`` that follows the ``acquire``
    line into straight-line acquire / body / release."""
    lines = source.splitlines(keepends=True)
    (start,) = [i for i, line in enumerate(lines) if line.strip() == acquire]
    indent = lines[start][: len(lines[start]) - len(lines[start].lstrip())]
    assert lines[start + 1] == f"{indent}try:\n"
    end = start + 2
    while lines[end].startswith(indent + " ") or lines[end] == f"{indent}finally:\n":
        end += 1
    body = [
        line[4:] for line in lines[start + 2 : end] if line != f"{indent}finally:\n"
    ]
    assert len(body) == end - start - 3  # exactly one finally at this depth
    return "".join(lines[: start + 1] + body + lines[end:])


def test_rdp001_catches_the_hash_seeded_payload_bug():
    path, pristine, mutant = _mutated(
        "storage/payload.py",
        '    key = f"{seed}\\x1f{version}\\x1f{name}".encode("utf-8")\n'
        '    return (zlib.crc32(b"hi\\x1f" + key) << 32) | zlib.crc32(b"lo\\x1f" + key)\n',
        "    return hash((seed, name, version))\n",
    )
    assert check(pristine, path) == []
    (finding,) = check(mutant, path)
    assert finding.rule == "RDP001"
    assert finding.line in _lines_of(mutant, "return hash((seed, name, version))")


def test_rdp002_catches_the_set_order_freeze_loop():
    path, pristine, mutant = _mutated(
        "core/recovery.py",
        "        frozen = sorted({sc for name in present",
        "        frozen = ({sc for name in present",
    )
    assert check(pristine, path) == []
    findings = check(mutant, path)
    assert [f.rule for f in findings] == ["RDP002", "RDP002"]
    # The freeze and unfreeze loops of failure_body.
    (after,) = _lines_of(
        mutant, "frozen = ({sc for name in present for sc in layout.superchunks_of(name)})"
    )
    loops = [n for n in _lines_of(mutant, "for sc_id in frozen:") if n > after]
    assert [f.line for f in findings] == loops and len(loops) == 2


def _killed_recovery(monkeypatch, source, acquire, options):
    """Run a double-failure recovery with ``source``'s ``_Pullers.puller``
    swapped in, interrupting the first puller that reaches the sleep
    after ``acquire`` (holding that grant).  The recovery's own process
    absorbs the interrupt; returns what ``run()`` raised, or None."""
    path = str(SRC / "repro" / "core" / "recovery.py")
    module = types.ModuleType("recovery_under_test")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source, path, "exec"), module.__dict__)
    puller = module._Pullers.puller
    monkeypatch.setattr(recovery._Pullers, "puller", puller)
    lines = [line.strip() for line in source.splitlines()]
    start = lines.index(acquire)
    sleep_line = next(
        n for n, line in enumerate(lines[start:], start + 1)
        if line.startswith("yield sim.timeout(")
    )

    pullers, killed = {}, []
    spawn, timeout = Simulator.process, Simulator.timeout

    def process(sim, body, name=""):
        proc = spawn(sim, body, name)
        if getattr(body, "gi_code", None) is puller.__code__:
            pullers[body.gi_frame] = proc
        return proc

    def timeout_or_die(sim, delay, value=None):
        caller = sys._getframe(1)
        if not killed and caller.f_code is puller.__code__ and caller.f_lineno == sleep_line:
            killed.append(pullers[caller])
            killed[0].interrupt("killed at its yield")
        return timeout(sim, delay, value)

    monkeypatch.setattr(Simulator, "process", process)
    monkeypatch.setattr(Simulator, "timeout", timeout_or_die)
    dfs = sparse_cluster(num_nodes=8, per_disk=3)
    write_some_data(dfs)
    a, b = pick_sharing_pair(dfs)
    manager = recovery.RecoveryManager(dfs)

    def drive():
        try:
            yield from manager.failure_body((a, b), options, reconstruct_only=True)
        except ProcessInterrupt:
            pass

    dfs.sim.process(drive())
    error = None
    try:
        dfs.sim.run()
    except SimulationError as refused:
        error = refused
    assert len(killed) == 1 and killed[0].name.startswith("pull:")
    return error


@pytest.mark.parametrize(
    "acquire, options, name",
    [
        (
            "grant = yield lock_whole.request()",
            recovery.RecoveryOptions(lock_mode="superchunk"),
            "reconstruct",
        ),
        (
            "grant = yield lock_ranges.acquire(offset, offset + run)",
            recovery.RecoveryOptions(),
            "reconstruct",
        ),
        (
            "bus_grant = yield memory_bus.request()",
            recovery.RecoveryOptions(chunk_size=16 * units.MiB),  # streaming XOR
            "xor-bus",
        ),
    ],
    ids=["lock_whole", "lock_ranges", "memory_bus"],
)
def test_kill_at_yield_catches_each_recovery_lock_leak(monkeypatch, acquire, options, name):
    """A puller killed at the sleep it takes holding a grant: the real
    file releases it on the way out, and each ``try/finally`` flattened
    back out (the three leaks RDP101 once found) is refused -- the other
    pullers queue behind the leak, so by ``DeadlockError``, naming the
    held primitive."""
    pristine = (SRC / "repro" / "core" / "recovery.py").read_text(encoding="utf-8")
    assert _killed_recovery(monkeypatch, pristine, acquire, options) is None
    mutant = _flatten_try_finally(pristine, acquire)
    error = _killed_recovery(monkeypatch, mutant, acquire, options)
    assert isinstance(error, DeadlockError)
    assert f"{name} x1" in str(error)


def test_environment_switch_inventory():
    """The ``RAIDP_*`` environment names read under ``src/``, exactly.

    Every such variable is a run configuration the tests and the
    benchmark must cover; a new one has to be added here on purpose.
    Only string constants count -- identifiers such as
    ``table2_recovery.RAIDP_ROWS`` are not environment names.
    """
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"RAIDP_[A-Z_]+", node.value):
                    names.add(node.value)
    assert names == {"RAIDP_JOBS"}


@pytest.mark.parametrize(
    "files, imports, calls",
    [
        (["repro"], {"gc", "ctypes"}, set()),
        (
            ["repro/sim", "repro/core", "repro/hdfs", "repro/faults.py"],
            {"threading", "multiprocessing", "subprocess", "socket", "asyncio", "select"},
            {"time.sleep", "os.system", "os.popen", "os.fork", "os.wait", "open", "input"},
        ),
    ],
    ids=["collector", "data-plane"],
)
def test_no_collector_or_allocator_control(files, imports, calls):
    """What a run must not reach for, by import root or dotted call.

    A run's memory returns through reference counting (DESIGN.md,
    "Object lifetime"), so nothing under ``src/`` imports ``gc`` or
    ``ctypes``: a forced collection, a paused collector or tuned
    thresholds would hide a new reference cycle instead of removing it
    (``tests/test_lifetime.py`` finds the cycle), and malloc tuning
    would hide it from the benchmark's peak RSS.

    The simulated data plane blocks only on simulated time: no threads,
    processes, sockets or event loops, no ``sleep``, no raw file or
    console I/O.  Real I/O belongs to ``storage/``, the exporters and
    ``tools/``."""
    found = []
    for entry in (SRC / name for name in files):
        for path in sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in calls:
                    found.append(f"{path}:{node.lineno}: {ast.unparse(node.func)}()")
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                found += [
                    f"{path}:{node.lineno}: import {name}"
                    for name in names
                    if name.split(".")[0] in imports
                ]
    assert found == []


def test_settable_value_census():
    """The constructor parameters, config fields and CLI arguments of
    the surfaces that lost a knob, exactly: one comes back on purpose
    (here), not by accretion."""
    import dataclasses

    from repro.core.cluster import RaidpCluster
    from repro.hdfs.filesystem import HdfsCluster
    from repro.obs import audit, simprofile, timeseries, tracer
    from repro.sim.cluster import ClusterSpec
    from repro.sim.disk import Disk
    from repro.sim.node import Node
    from repro.storage.payload import ContentFactory
    from repro.tools import chaos, profile, raidpctl

    def params(fn):
        return [name for name in inspect.signature(fn).parameters if name != "self"]

    # The observers: what a caller can set when switching one on.
    assert params(tracer.capture) == ["tracer"]
    assert params(tracer.Tracer.__init__) == ["categories"]
    assert params(simprofile.capture) == []
    assert params(simprofile.SimProfiler.__init__) == []
    assert params(timeseries.capture) == ["interval"]
    assert params(timeseries.Sampler.__init__) == ["interval"]
    assert params(timeseries.Sampler.watch) == ["dfs", "monitor"]
    assert params(audit.capture) == ["fail_fast"]
    assert params(audit.Auditor.__init__) == ["fail_fast"]
    assert params(audit.Auditor.attach) == ["dfs"]

    # One payload representation: the clusters and the factory take no mode.
    assert params(HdfsCluster.__init__) == ["spec", "config", "placement", "seed"]
    assert params(RaidpCluster.__init__) == [
        "spec", "config", "raidp", "superchunk_size", "superchunks_per_disk", "seed",
    ]
    assert params(ContentFactory.__init__) == ["seed"]
    assert params(chaos.run_chaos) == ["seed", "schedule"]
    assert params(chaos.run_repeated) == ["seed", "runs", "schedule"]
    assert params(Disk.__init__) == ["sim", "geometry", "name"]
    assert params(Node.add_disk) == ["geometry"]
    assert [f.name for f in dataclasses.fields(ClusterSpec)] == [
        "num_nodes", "disks_per_node", "disk_geometry", "nic_rate",
        "secondary_nic_rate", "cpu", "ram",
    ]
    subcommands = raidpctl._build_parser()._subparsers._group_actions[0].choices
    arguments = {
        name: sorted(
            action.option_strings[0] if action.option_strings else action.dest
            for action in subcommands[name]._actions
            if action.dest != "help"
        )
        for name in ("profile", "trace")
    }
    assert arguments == {
        "profile": ["--full", "--json", "--limit", "--tasks", "experiment"],
        "trace": ["--category", "--limit", "file"],
    }
    for main, argv in (
        (profile.main, ["fig1", "--cprofile"]),
        (raidpctl.main, ["dash", "x"]),
        (chaos.main, ["--audit"]),
        (chaos.main, ["--health", "x"]),
        (chaos.main, ["--timeseries", "x"]),
        (chaos.main, ["--dash"]),
        (chaos.main, ["--sample-interval", "1"]),
    ):
        with pytest.raises(SystemExit):
            main(argv)


def _assigned_names(statement):
    """The plain names an ``x = ...`` / ``x: T = ...`` statement binds."""
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return {target.id for target in targets if isinstance(target, ast.Name)}


def test_ambient_slot_inventory():
    """One ambient mechanism: ``obs/ambient.Slot`` is the only code
    under ``src/repro/`` that rebinds an ambient observer, each of the
    four observer modules owns exactly one, and no observer but the
    tracer (whose ``enabled`` is the null-object hot-path check) carries
    a mute flag."""
    package = SRC / "repro"
    globals_rebound, occupant_writers, enabled_flags = set(), set(), set()
    slot_classes, slot_owners = [], []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                globals_rebound |= {(relative, name) for name in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if node.attr == "_occupant":
                    occupant_writers.add(relative)
            elif isinstance(node, ast.ClassDef):
                if node.name == "Slot":
                    slot_classes.append(relative)
                if relative.startswith("obs/") and any(
                    "enabled" in _assigned_names(statement) for statement in node.body
                ):
                    enabled_flags.add((relative, node.name))
        for statement in tree.body:  # module level only
            assert "_ACTIVE" not in _assigned_names(statement), relative
            value = getattr(statement, "value", None)
            if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "Slot":
                slot_owners.append(relative)
    assert globals_rebound == set()
    assert occupant_writers == {"obs/ambient.py"}
    assert slot_classes == ["obs/ambient.py"]
    assert slot_owners == [
        "obs/audit.py", "obs/simprofile.py", "obs/timeseries.py", "obs/tracer.py",
    ]
    assert enabled_flags == {("obs/tracer.py", "NullTracer"), ("obs/tracer.py", "Tracer")}


def _strings(expression):
    """The string constants an expression can evaluate to: a literal, a
    conditional's two arms, or a ``.get(key, default)``'s default."""
    if isinstance(expression, ast.Constant) and isinstance(expression.value, str):
        return {expression.value}
    if isinstance(expression, ast.IfExp):
        return _strings(expression.body) | _strings(expression.orelse)
    if isinstance(expression, ast.Call) and len(expression.args) == 2:
        return _strings(expression.args[1])
    return set()


def test_registered_categories_are_the_emitted_ones():
    """The taxonomy registers exactly the categories the tree uses: the
    literal first argument of every ``*.complete`` / ``*.instant`` /
    ``*.count`` emission under ``src/``, plus every category the
    profiler's classifier (``obs/simprofile.py``) can return.  A
    registered category nothing emits is a dead entry."""
    from repro.obs.taxonomy import CATEGORIES

    emitted = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("complete", "instant", "count")
                and node.args
                and len(node.args) + len(node.keywords) >= 3  # category, name, ts
            ):
                emitted |= _strings(node.args[0])
    classified = set()
    profiler = SRC / "repro" / "obs" / "simprofile.py"
    for node in ast.walk(ast.parse(profiler.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign):
            names = [ast.unparse(target) for target in node.targets]
            if names == ["category"]:
                classified |= _strings(node.value)
            elif names[0].endswith("_CATEGORIES"):
                classified |= set().union(*map(_strings, node.value.values))
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple):
            classified |= _strings(node.value.elts[0])
    assert emitted and classified
    assert set(CATEGORIES) == emitted | classified


# ----------------------------------------------------------------------
# DESIGN.md names what the tree holds.
# ----------------------------------------------------------------------
DESIGN = (SRC.parent / "DESIGN.md").read_text(encoding="utf-8")


def _design_section(number):
    start = DESIGN.index(f"\n## {number}. ")
    end = DESIGN.find("\n## ", start + 1)
    return DESIGN[start : end if end != -1 else None]


def test_design_repository_map_matches_tree():
    """Every ``name.py`` and ``name/`` in section 6's map exists, and
    every module of the package is on the map."""
    block = _design_section(6).split("```")[1]
    base, named = SRC.parent, set()
    for line in block.splitlines():
        indent = len(line) - len(line.lstrip())
        directory = re.match(r"([\w/]+)/\s", line.lstrip() + " ")
        if indent <= 2 and directory:  # deeper lines continue the entry above
            base = (SRC / "repro" if indent else SRC.parent) / directory.group(1)
            assert base.is_dir(), f"DESIGN.md section 6 names {base}/"
        elif indent == 2:
            base = SRC / "repro"  # the package's top-level modules
        for name in re.findall(r"\b\w+\.py\b", line):
            assert (base / name).is_file(), f"DESIGN.md section 6 names {base / name}"
            named.add(base / name)
    modules = {p for p in (SRC / "repro").rglob("*.py") if not p.name.startswith("__")}
    assert modules <= named, sorted(modules - named)
    _check_observability_sections_cite_the_tree()


#: Names sections 9 and 13 cite from outside ``obs/`` and ``sim/stats.py``.
_FOREIGN = {
    "AuditError", "COMMITTED", "DiskStats", "None", "layout.verify()",
    "RaidpCluster.unabsorbed_writes",
}


def _check_observability_sections_cite_the_tree():
    """Sections 9 and 13: every ``obs/*.py`` / ``sim/*.py`` / ``tests/*.py``
    path exists (and a ``::name`` is defined in it), and every class,
    constant or call they cite is a name of ``obs/``, ``sim/stats.py``
    or ``sim/engine.py`` (or an attribute of one of their classes) -- so
    a deleted name cannot stay documented."""
    from repro.sim import engine, stats

    owners = [stats, engine] + [
        importlib.import_module(f"repro.obs.{info.name}")
        for info in pkgutil.iter_modules([str(SRC / "repro" / "obs")])
    ]
    owners += [
        value for module in owners[:] for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]

    def resolves(name):
        head, _, attribute = name.partition(".")
        found = [getattr(o, head) for o in owners if hasattr(o, head)]
        if attribute and found:  # Class.method
            return any(hasattr(f, attribute) for f in found)
        # instance.method goes by its method name
        return resolves(attribute) if attribute else bool(found)

    text = (_design_section(9) + _design_section(13)).replace("\n", " ")
    for token in sorted(set(re.findall(r"`([^`]+)`", text))):
        path = re.fullmatch(r"((?:obs|sim|tests)/\w+\.py)(?:::(\w+))?", token)
        if path:
            base = SRC.parent if token.startswith("tests/") else SRC / "repro"
            assert (base / path.group(1)).is_file(), f"DESIGN.md cites {token}"
            if path.group(2):
                source = (base / path.group(1)).read_text(encoding="utf-8")
                assert re.search(rf"^(def|class) {path.group(2)}\b", source, re.M), token
            continue
        name = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", token)
        if not name or token in _FOREIGN:
            continue
        bare = name.group(1)
        cited_as_code = name.group(2) or re.fullmatch(r"[A-Z]\w*[a-z]\w*|[A-Z][A-Z_]{2,}", bare)
        assert not cited_as_code or resolves(bare), f"DESIGN.md cites `{token}`"


def _strict_modules():
    names = []
    for package in (repro.analysis, repro.core, repro.sim):
        for info in pkgutil.iter_modules(package.__path__):
            names.append(f"{package.__name__}.{info.name}")
    return sorted(names)


def _type_checking_names(module):
    """Names imported only under ``if TYPE_CHECKING:`` (cycle breakers).

    Those are invisible at runtime by design; the resolution sweep
    treats them as opaque placeholder types rather than failures.
    """
    source = inspect.getsource(module)
    names = {}
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING"):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    names[bound] = type(bound, (), {})
    return names


def test_promoted_packages_have_no_untyped_defs():
    """The local mirror of mypy's ``disallow_untyped_defs`` gate.

    CI runs mypy with strict overrides for ``repro.sim``, ``repro.core``
    and ``repro.obs`` and for ``repro.experiments``, ``repro.tools`` and
    ``repro.analysis`` (pyproject.toml); this sweep enforces the same
    surface -- every def, public or private, fully annotated -- without
    mypy installed.
    """
    offenders = []
    packages = ("sim", "core", "obs", "experiments", "tools", "analysis")
    for package in (f"repro/{name}" for name in packages):
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                every = args.posonlyargs + args.args + args.kwonlyargs
                missing = [
                    arg.arg
                    for index, arg in enumerate(every)
                    if arg.annotation is None
                    and not (index == 0 and arg.arg in ("self", "cls"))
                ]
                if args.vararg is not None and args.vararg.annotation is None:
                    missing.append("*" + args.vararg.arg)
                if args.kwarg is not None and args.kwarg.annotation is None:
                    missing.append("**" + args.kwarg.arg)
                if node.returns is None:
                    missing.append("return")
                if missing:
                    offenders.append(
                        f"{path}:{node.lineno}: {node.name}({', '.join(missing)})"
                    )
    assert offenders == [], "\n".join(offenders)


@pytest.mark.parametrize("module_name", _strict_modules())
def test_annotations_resolve(module_name):
    """Every annotation in the strict packages resolves to a real type.

    ``from __future__ import annotations`` defers evaluation, so a
    forgotten typing import only explodes when someone *resolves* the
    hints -- which is exactly what this does, for every public callable.
    """
    module = importlib.import_module(module_name)
    localns = _type_checking_names(module)
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
            continue
        if inspect.isfunction(obj):
            get_type_hints(obj, localns=localns)
        elif inspect.isclass(obj):
            for _mname, method in sorted(vars(obj).items()):
                if inspect.isfunction(method):
                    get_type_hints(method, localns=localns)
