"""Reachability probe: which ``src/`` functions does nothing we ship call?

Runs the production entry points (the experiments CLI, the chaos soak
and flight recorder, the ``raidpctl`` commands, three bench workloads
and the bench kernels, the six examples) in one process under one trace
hook, then prints every function defined under ``src/repro`` that never
ran, sorted, one ``module:qualname`` per line.  Dunder methods are
skipped.  ``make reach`` diffs this list against
``tests/reach_ledger.txt``, which gives each entry its reason.

Run:  PYTHONPATH=src python -m tests.reach
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
from pathlib import Path
from types import CodeType
from typing import Callable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _walk(node: ast.AST, prefix: str) -> Iterator[str]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = child.name
            if not (name.startswith("__") and name.endswith("__")):
                yield prefix + name
            yield from _walk(child, f"{prefix}{name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, f"{prefix}{child.name}.")
        else:
            yield from _walk(child, prefix)


def module_of(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def defined() -> Set[str]:
    """Every ``module:qualname`` defined under ``src/repro`` (an AST walk)."""
    return {
        f"{module_of(path)}:{qualname}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for qualname in _walk(ast.parse(path.read_text()), "")
    }


def steps(tmp: Path) -> List[Tuple[str, Callable[[], object]]]:
    from repro.experiments.runner import main as experiments
    from repro.tools.chaos import main as chaos
    from repro.tools.raidpctl import main as raidpctl

    sys.path.insert(0, str(ROOT))
    from bench.kernels import run_kernels
    from bench.trace import Spans
    from bench.workloads import WORKLOADS

    trace, recorded = (str(tmp / n) for n in ("t2.json", "chaos.json"))
    found = [
        ("experiments all", lambda: experiments(["all", "--jobs", "1"])),
        ("trace export", lambda: experiments(
            ["table2", "--trace", trace, "--trace-categories", "recovery,fault"])),
        ("raidpctl trace", lambda: raidpctl(["trace", trace])),
        ("chaos", lambda: chaos(["--runs", "2"])),
        ("flight recorder", lambda: chaos(["--runs", "1", "--trace", recorded])),
        ("raidpctl trace flight recorder", lambda: raidpctl(["trace", recorded])),
        ("raidpctl profile", lambda: raidpctl(
            ["profile", "table2", "--tasks", "2", "--limit", "10"])),
        ("raidpctl layout", lambda: raidpctl(["layout", "--nodes", "7"])),
        ("raidpctl bench", lambda: raidpctl(["bench", "--system", "raidp", "--data", "4GiB"])),
        ("raidpctl drill", lambda: raidpctl(["drill", "--nodes", "8", "--double"])),
        ("raidpctl tco", lambda: raidpctl(["tco"])),
        ("raidpctl experiments", lambda: raidpctl(["experiments", "fig1"])),
        ("bench kernels", lambda: run_kernels(samples=1)),
    ]
    # dfs_write, dfs_read and scale_out rerun fig8 / fig9 + fig10 /
    # ext-scale tasks that "experiments all" already calls.
    for name in ("recovery", "durability_mc", "chaos_soak"):
        work = WORKLOADS[name].repeat
        found.append((f"bench {name}", lambda w=work, n=name: w(1, True, Spans(n))))
    for example in sorted((ROOT / "examples").glob("*.py")):
        found.append((example.name, lambda p=str(example): runpy.run_path(p, run_name="__main__")))
    return found


def main() -> int:
    """Run every step under one hook (imports included), then print the
    ``module:qualname`` of each function that never ran."""
    codes: Set[CodeType] = set()

    def hook(frame, event, arg):
        # Called once per new Python frame; returning None skips line
        # tracing, so the hook costs one set insert per call.
        codes.add(frame.f_code)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        os.chdir(tmp)
        sys.settrace(hook)
        try:
            with contextlib.redirect_stdout(sink):
                for label, step in steps(Path(tmp)):
                    status = step()
                    if isinstance(status, int) and status != 0:
                        raise SystemExit(f"reach: step {label!r} exited {status}")
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    prefix = str(SRC / "repro") + os.sep
    ran = {
        f"{module_of(Path(code.co_filename))}:{code.co_qualname}"
        for code in codes
        if code.co_filename.startswith(prefix)
    }
    for name in sorted(defined() - ran):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
