"""End-to-end lint and typing gates over the real source tree.

These are the tests that make the invariants *stick*: the whole of
``src/`` must lint clean with the repo allowlists, and every annotation
in the strict packages must actually resolve (a missing import hidden
by ``from __future__ import annotations`` fails here, the way it once
did for ``repro.obs.tracer``).
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path
from typing import get_type_hints

import pytest

import repro.core
import repro.sim
from repro.lint.cli import build_engine

SRC = Path(__file__).resolve().parent.parent / "src"


def test_source_tree_lints_clean():
    engine = build_engine()
    findings = engine.lint_paths([str(SRC)])
    errors = [f for f in findings if f.severity == "error"]
    assert errors == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in errors
    )


def test_source_tree_has_no_unsuppressed_warnings():
    engine = build_engine()
    findings = engine.lint_paths([str(SRC)])
    warnings = [f for f in findings if f.severity == "warning"]
    assert warnings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in warnings
    )


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
    assert names == {
        "RAIDP_JOBS",
        "RAIDP_MP_CONTEXT",
        "RAIDP_SNAPSHOT_DIR",
        "RAIDP_WARM_START",
    }


def _strict_modules():
    names = []
    for package in (repro.core, repro.sim):
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

    CI runs mypy with strict overrides for ``repro.experiments`` and
    ``repro.tools`` (pyproject.toml); mypy is not in the local image, so
    this sweep enforces the same surface -- every def fully annotated --
    without it.
    """
    offenders = []
    for package in ("repro/experiments", "repro/tools"):
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
