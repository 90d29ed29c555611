"""Determinism checker: the two static rules that have caught real bugs.

``RDP001``
    No wall-clock or entropy: ``time.time``, ``datetime.now``,
    ``os.urandom``, module-level ``random.*``, unseeded
    ``random.Random()`` / ``default_rng()``, and ``hash()`` outside
    ``__hash__`` (string hashing varies with ``PYTHONHASHSEED``).  It
    caught payload seeds drawn from ``hash()``.  The profilers in
    :data:`WALL_CLOCK_FILES` exist to read the wall clock and are skipped.
``RDP002``
    No iteration over a set where the order can steer scheduling or
    placement (``for x in a_set``, comprehensions, ``list(a_set)``,
    ``min/max(a_set, key=...)``) unless an order-insensitive consumer
    (``sorted``, ``sum``, ``len``, ...) takes the result.  It caught
    ``failure_body`` freezing superchunks in set order, which no
    run-twice check sees: integer-set order ignores the hash seed.

Standard library only.  Run:  python -m tests.determinism src/
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set

#: The profilers, whose purpose is to read the wall clock: RDP001 skips them.
WALL_CLOCK_FILES = ("/repro/tools/profile.py", "/repro/obs/simprofile.py")

#: Dotted call suffixes that read the host clock or OS entropy.
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "datetime.now",
    "datetime.utcnow", "datetime.today", "date.today", "os.urandom",
    "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes", "secrets.token_hex",
    "secrets.randbits", "secrets.choice",
})
#: Module-level ``random.*`` functions: hidden global state seeded from
#: the OS (simulated code uses a seeded ``random.Random``).
RANDOM_MODULE_CALLS = frozenset({
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.expovariate", "random.getrandbits", "random.seed",
})
#: Consumers whose result does not depend on element order.
ORDER_INSENSITIVE = frozenset(
    {"sorted", "sum", "fsum", "len", "any", "all", "set", "frozenset", "min", "max"}
)
#: Conversions that freeze the (arbitrary) order into a sequence.
ORDER_FREEZING = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})
SET_ANNOTATIONS = frozenset({"set", "Set", "frozenset", "FrozenSet", "MutableSet"})

Parents = Dict[ast.AST, ast.AST]


class Finding(NamedTuple):
    line: int
    rule: str
    message: str


def check(source: str, path: str) -> List[Finding]:
    """Every RDP001 / RDP002 finding in ``source``, sorted by line."""
    tree = ast.parse(source, filename=path)
    findings: List[Finding] = []
    if not path.endswith(WALL_CLOCK_FILES):
        _wall_clock(tree, False, findings)
    _unordered_iteration(tree, findings)
    return sorted(findings)


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for nested attributes, ``name`` for plain names."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


# -- RDP001: wall clock and entropy ------------------------------------
def _wall_clock(node: ast.AST, in_hash_method: bool, findings: List[Finding]) -> None:
    # ``hash()`` inside ``__hash__`` is exempt: hashing is its contract.
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        in_hash_method = node.name == "__hash__"
    if isinstance(node, ast.Call):
        message = _wall_clock_call(node, in_hash_method)
        if message is not None:
            findings.append(Finding(node.lineno, "RDP001", message))
    for child in ast.iter_child_nodes(node):
        _wall_clock(child, in_hash_method, findings)


def _wall_clock_call(node: ast.Call, in_hash_method: bool) -> Optional[str]:
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    if dotted in RANDOM_MODULE_CALLS:
        return (
            f"module-level {dotted}() uses hidden OS-seeded global state; "
            "use an explicitly seeded random.Random(seed)"
        )
    if any(dotted == suffix or dotted.endswith("." + suffix) for suffix in CLOCK_CALLS):
        return (
            f"{dotted}() reads the wall clock / OS entropy; simulation results "
            "must derive only from sim time and explicit seeds"
        )
    unseeded = not node.args and not node.keywords
    if dotted in ("random.Random", "Random") and unseeded:
        return "random.Random() without a seed is OS-seeded; pass one"
    if dotted.endswith("default_rng") and unseeded:
        return "default_rng() without a seed is OS-seeded; pass one"
    if dotted == "hash" and not in_hash_method:
        return (
            "hash() of str/bytes is randomized per process (PYTHONHASHSEED); "
            "derive stable values via zlib.crc32 or use it only for in-process "
            "comparison"
        )
    return None


# -- RDP002: unordered iteration ---------------------------------------
def _unordered_iteration(tree: ast.Module, findings: List[Finding]) -> None:
    parents: Parents = {
        child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)
    }
    known_by_scope = _known_set_names(tree, parents)
    loop = (
        "iterating a set: element order is arbitrary hash order and can steer "
        "scheduling/placement; wrap in sorted(...)"
    )
    for node in ast.walk(tree):
        known = set().union(*(known_by_scope.get(s, ()) for s in _scopes(node, parents)))
        if isinstance(node, ast.For):
            if _is_setish(node.iter, known):
                findings.append(Finding(node.iter.lineno, "RDP002", loop))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            if not _feeds_order_insensitive(node, parents):
                for comp in node.generators:
                    if _is_setish(comp.iter, known):
                        findings.append(Finding(comp.iter.lineno, "RDP002", loop))
        elif isinstance(node, ast.Call) and node.args and _is_setish(node.args[0], known):
            dotted = _dotted(node.func)
            if dotted in ORDER_FREEZING:
                findings.append(Finding(node.lineno, "RDP002", (
                    f"{dotted}() over a set freezes arbitrary hash order into a "
                    "sequence; use sorted(...)"
                )))
            elif dotted in ("min", "max") and any(kw.arg == "key" for kw in node.keywords):
                findings.append(Finding(node.lineno, "RDP002", (
                    f"{dotted}(..., key=...) over a set breaks key ties in hash "
                    "order; iterate sorted(...) instead"
                )))


def _feeds_order_insensitive(node: ast.AST, parents: Parents) -> bool:
    """True when a comprehension is an argument of sorted()/sum()/...

    ``sorted(r for r in free if legal(r))`` is deterministic although
    ``free`` is a set.  min/max qualify only without a key (key ties
    would bring the hash order back).
    """
    parent = parents.get(node)
    if not isinstance(parent, ast.Call) or node not in parent.args:
        return False
    dotted = _dotted(parent.func)
    name = dotted.rsplit(".", 1)[-1] if dotted is not None else None
    if name not in ORDER_INSENSITIVE:
        return False
    return name not in ("min", "max") or not any(kw.arg == "key" for kw in parent.keywords)


def _scopes(node: ast.AST, parents: Parents) -> Iterator[Optional[ast.AST]]:
    """The function defs around ``node``, innermost first, then None (the module)."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield current
        current = parents.get(current)
    yield None


def _known_set_names(tree: ast.Module, parents: Parents) -> Dict[Optional[ast.AST], Set[str]]:
    """Names assigned a set, grouped by enclosing function scope.

    Per-scope tracking avoids cross-function false positives (the same
    name bound to a list elsewhere); within a scope it is
    flow-insensitive: a false positive is one ``sorted()`` away.
    """
    known: Dict[Optional[ast.AST], Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            scope = next(_scopes(node, parents))
            if _is_setish(node.value, known.get(scope, set())):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        known.setdefault(scope, set()).add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = node.annotation
            base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
            dotted = _dotted(base)
            if dotted is not None and dotted.rsplit(".", 1)[-1] in SET_ANNOTATIONS:
                known.setdefault(next(_scopes(node, parents)), set()).add(node.target.id)
    return known


def _is_setish(node: ast.AST, known_sets: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in known_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setish(node.left, known_sets) or _is_setish(node.right, known_sets)
    return False


def check_paths(paths: Sequence[str]) -> List[str]:
    """``path:line: RULE message`` for every finding under ``paths``
    (files, or directories searched for ``*.py``), in path order."""
    files: List[Path] = []
    for entry in map(Path, paths):
        files.extend(sorted(entry.rglob("*.py")) if entry.is_dir() else [entry])
    return [
        f"{file}:{line}: {rule} {message}"
        for file in files
        for line, rule, message in check(file.read_text(encoding="utf-8"), str(file))
    ]


def main(argv: Sequence[str]) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print("usage: python -m tests.determinism PATH...", file=sys.stderr)
        return 2
    findings = check_paths(argv)
    print("\n".join(findings + [f"{len(findings)} finding(s)"]))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
