"""The RDP rule set: simulation-correctness invariants as AST checks.

Each rule turns one prose invariant from DESIGN.md into a machine check:

``RDP001``
    No wall-clock or entropy in deterministic code: ``time.time``,
    ``datetime.now``, ``os.urandom``, module-level ``random.*``,
    unseeded ``random.Random()`` / ``default_rng()``, and ``hash()`` of
    runtime values (string hashing is randomized per process by
    ``PYTHONHASHSEED``) outside ``__hash__``.
``RDP002``
    No iteration over unordered containers where the order can steer
    scheduling or placement: ``for x in some_set``, comprehensions over
    sets, ``list(set(...))`` -- unless the result immediately feeds an
    order-insensitive consumer (``sorted``, ``sum``, ``len``, ...).
    ``dict.keys()`` iteration is flagged as a warning: iterate the dict
    itself (insertion order is the contract).
``RDP003``
    Simulation code must not block on the OS: no ``time.sleep``,
    ``threading``/``subprocess``/``socket`` imports, raw ``open()`` or
    ``input()`` inside ``sim/``, ``core/``, ``hdfs/`` (the simulated
    data plane) -- real I/O belongs to ``storage/``, ``hdfs/localfs``,
    exporters, and tools.
``RDP004``
    Every literal span category at a tracer emission site must be
    registered in :data:`repro.obs.taxonomy.CATEGORIES`.
``RDP005``
    Float accumulation in stats code goes through ``math.fsum``, not
    bare ``sum()`` (associativity drift).
``RDP006``
    Public functions in ``core/`` and ``sim/`` are fully annotated
    (every parameter and the return type) -- the static half of the
    strict mypy gate.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .engine import FileContext, Finding, Rule

__all__ = [
    "WallClockRule",
    "UnorderedIterationRule",
    "BlockingCallRule",
    "TraceTaxonomyRule",
    "FloatSumRule",
    "AnnotationRule",
    "default_rules",
]


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for nested attributes, ``name`` for plain names."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _parents(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    links: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            links[child] = parent
    return links


# ----------------------------------------------------------------------
# RDP001 -- wall clock and entropy.
# ----------------------------------------------------------------------
class WallClockRule(Rule):
    id = "RDP001"
    title = "no wall-clock or entropy sources in deterministic code"
    severity = "error"

    #: Dotted call suffixes that read the host clock or OS entropy.
    CLOCK_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "date.today",
            "os.urandom",
            "uuid.uuid1",
            "uuid.uuid4",
            "secrets.token_bytes",
            "secrets.token_hex",
            "secrets.randbits",
            "secrets.choice",
        }
    )
    #: Module-level ``random.*`` functions (share hidden global state
    #: seeded from the OS; sim code must use a seeded ``random.Random``).
    RANDOM_MODULE_CALLS = frozenset(
        {
            "random.random",
            "random.randint",
            "random.randrange",
            "random.choice",
            "random.choices",
            "random.shuffle",
            "random.sample",
            "random.uniform",
            "random.gauss",
            "random.expovariate",
            "random.getrandbits",
            "random.seed",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Manual DFS carrying "inside __hash__" so hash() in a __hash__
        # implementation (hashing *is* its contract) is exempt.
        findings: List[Finding] = []
        self._visit(ctx, ctx.tree, False, findings)
        return iter(findings)

    def _visit(
        self,
        ctx: FileContext,
        node: ast.AST,
        in_hash_method: bool,
        findings: List[Finding],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_hash_method = node.name == "__hash__"
        if isinstance(node, ast.Call):
            self._check_call(ctx, node, in_hash_method, findings)
        for child in ast.iter_child_nodes(node):
            self._visit(ctx, child, in_hash_method, findings)

    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        in_hash_method: bool,
        findings: List[Finding],
    ) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted in self.RANDOM_MODULE_CALLS:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"module-level {dotted}() uses hidden OS-seeded global "
                    "state; use an explicitly seeded random.Random(seed)",
                )
            )
            return
        for suffix in self.CLOCK_CALLS:
            if dotted == suffix or dotted.endswith("." + suffix):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{dotted}() reads the wall clock / OS entropy; "
                        "simulation results must derive only from sim time "
                        "and explicit seeds",
                    )
                )
                return
        if dotted in ("random.Random", "Random") and not node.args and not node.keywords:
            findings.append(
                self.finding(
                    ctx, node, "random.Random() without a seed is OS-seeded; pass one"
                )
            )
            return
        if dotted.endswith("default_rng") and not node.args and not node.keywords:
            findings.append(
                self.finding(
                    ctx, node, "default_rng() without a seed is OS-seeded; pass one"
                )
            )
            return
        if dotted == "hash" and not in_hash_method:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    "hash() of str/bytes is randomized per process "
                    "(PYTHONHASHSEED); derive stable values via zlib.crc32 "
                    "or use it only for in-process comparison",
                )
            )


# ----------------------------------------------------------------------
# RDP002 -- unordered iteration.
# ----------------------------------------------------------------------
class UnorderedIterationRule(Rule):
    id = "RDP002"
    title = "no iteration over unordered sets feeding decisions"
    severity = "error"

    #: Consumers whose result does not depend on element order.
    ORDER_INSENSITIVE = frozenset(
        {"sorted", "sum", "fsum", "len", "any", "all", "set", "frozenset", "min", "max"}
    )
    #: Conversions that freeze the (arbitrary) order into a sequence.
    ORDER_FREEZING = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        parents = _parents(ctx.tree)
        known_by_scope = self._known_set_names(ctx.tree, parents)
        for node in ast.walk(ctx.tree):
            known_sets = self._names_in_scope(node, parents, known_by_scope)
            if isinstance(node, ast.For):
                yield from self._check_iter(ctx, node.iter, known_sets, exempt=False)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                exempt = self._feeds_order_insensitive(node, parents)
                for comp in node.generators:
                    yield from self._check_iter(ctx, comp.iter, known_sets, exempt)
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in self.ORDER_FREEZING and node.args:
                    if self._is_setish(node.args[0], known_sets):
                        yield self.finding(
                            ctx,
                            node,
                            f"{dotted}() over a set freezes arbitrary hash "
                            "order into a sequence; use sorted(...)",
                        )
                elif (
                    dotted in ("min", "max")
                    and node.args
                    and any(kw.arg == "key" for kw in node.keywords)
                    and self._is_setish(node.args[0], known_sets)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted}(..., key=...) over a set breaks key ties "
                        "in hash order; iterate sorted(...) instead",
                    )

    def _check_iter(
        self,
        ctx: FileContext,
        iter_node: ast.AST,
        known_sets: Set[str],
        exempt: bool,
    ) -> Iterator[Finding]:
        if exempt:
            return
        if self._is_setish(iter_node, known_sets):
            yield self.finding(
                ctx,
                iter_node,
                "iterating a set: element order is arbitrary hash order "
                "and can steer scheduling/placement; wrap in sorted(...)",
            )
        elif self._is_keys_call(iter_node):
            yield Finding(
                path=ctx.path,
                line=iter_node.lineno,
                col=iter_node.col_offset + 1,
                rule=self.id,
                severity="warning",
                message="iterate the dict directly instead of .keys(); "
                ".keys() at an iteration site suggests hash-order thinking",
            )

    def _feeds_order_insensitive(
        self, node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        """True when a comprehension is an argument of sorted()/sum()/...

        ``sorted(r for r in free if legal(r))`` is deterministic even
        though ``free`` is a set -- the outer consumer re-establishes
        the order (or never observes one).  min/max only qualify here
        without a key (key ties would resurface the hash order).
        """
        parent = parents.get(node)
        if not isinstance(parent, ast.Call) or node not in parent.args:
            return False
        dotted = _dotted(parent.func)
        if dotted is None:
            return False
        name = dotted.rsplit(".", 1)[-1]
        if name not in self.ORDER_INSENSITIVE:
            return False
        if name in ("min", "max") and any(kw.arg == "key" for kw in parent.keywords):
            return False
        return True

    @staticmethod
    def _enclosing_scope(
        node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> Optional[ast.AST]:
        """The innermost function def containing ``node`` (None = module)."""
        current = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = parents.get(current)
        return None

    @classmethod
    def _names_in_scope(
        cls,
        node: ast.AST,
        parents: Dict[ast.AST, ast.AST],
        known_by_scope: Dict[Optional[ast.AST], Set[str]],
    ) -> Set[str]:
        """Set-typed names visible at ``node``: its scope chain's union."""
        names: Set[str] = set(known_by_scope.get(None, ()))
        current: Optional[ast.AST] = cls._enclosing_scope(node, parents)
        while current is not None:
            names.update(known_by_scope.get(current, ()))
            current = cls._enclosing_scope(current, parents)
        return names

    @classmethod
    def _known_set_names(
        cls, tree: ast.Module, parents: Dict[ast.AST, ast.AST]
    ) -> Dict[Optional[ast.AST], Set[str]]:
        """Names assigned a set, grouped by enclosing function scope.

        Per-scope tracking avoids cross-function false positives (the
        same name bound to a list elsewhere); within a scope the
        tracking is flow-insensitive -- a false positive is one
        ``sorted()`` away, and that keeps the pass to a single walk.
        """
        known: Dict[Optional[ast.AST], Set[str]] = {}
        set_annotations = {"set", "Set", "frozenset", "FrozenSet", "MutableSet"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                scope = cls._enclosing_scope(node, parents)
                if cls._is_setish(node.value, known.get(scope, set())):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            known.setdefault(scope, set()).add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                annotation = node.annotation
                base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
                dotted = _dotted(base)
                if dotted is not None and dotted.rsplit(".", 1)[-1] in set_annotations:
                    scope = cls._enclosing_scope(node, parents)
                    known.setdefault(scope, set()).add(node.target.id)
        return known

    @staticmethod
    def _is_setish(node: ast.AST, known_sets: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            return dotted in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in known_sets
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return UnorderedIterationRule._is_setish(
                node.left, known_sets
            ) or UnorderedIterationRule._is_setish(node.right, known_sets)
        return False

    @staticmethod
    def _is_keys_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
        )


# ----------------------------------------------------------------------
# RDP003 -- blocking / OS calls inside the simulated data plane.
# ----------------------------------------------------------------------
class BlockingCallRule(Rule):
    id = "RDP003"
    title = "sim processes must not block on the OS"
    severity = "error"
    paths = (
        "*/repro/sim/*",
        "*/repro/core/*",
        "*/repro/hdfs/*",
        "*/repro/faults.py",
    )

    BLOCKING_IMPORTS = frozenset(
        {"threading", "multiprocessing", "subprocess", "socket", "asyncio", "select"}
    )
    BLOCKING_CALLS = frozenset(
        {"time.sleep", "os.system", "os.popen", "os.fork", "os.wait"}
    )
    BLOCKING_BUILTINS = frozenset({"open", "input"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root in self.BLOCKING_IMPORTS:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {alias.name!r} in simulated code: "
                            "concurrency and I/O happen in simulated time "
                            "(sim.timeout / disk models), not OS primitives",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".", 1)[0]
                if root in self.BLOCKING_IMPORTS:
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {node.module!r} in simulated code: "
                        "use simulated primitives instead",
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                if dotted in self.BLOCKING_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted}() blocks the host inside a sim process; "
                        "yield sim.timeout(...) to model latency",
                    )
                elif dotted in self.BLOCKING_BUILTINS:
                    yield self.finding(
                        ctx,
                        node,
                        f"raw {dotted}() in the simulated data plane; real "
                        "file I/O belongs to storage/, exporters, or tools/",
                    )


# ----------------------------------------------------------------------
# RDP004 -- trace categories must be registered.
# ----------------------------------------------------------------------
class TraceTaxonomyRule(Rule):
    id = "RDP004"
    title = "trace span categories must be registered in the taxonomy"
    severity = "error"

    #: method name -> index of its category argument.
    EMITTERS = {"complete": 0, "instant": 0, "count": 0, "span": 1}

    def __init__(self, categories: Optional[frozenset] = None) -> None:
        if categories is None:
            from repro.obs.taxonomy import CATEGORIES

            categories = frozenset(CATEGORIES)
        self.categories = categories

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            index = self.EMITTERS.get(node.func.attr)
            if index is None or not self._is_tracer(node.func.value):
                continue
            if len(node.args) <= index:
                continue
            category = node.args[index]
            if not isinstance(category, ast.Constant) or not isinstance(
                category.value, str
            ):
                continue
            if category.value not in self.categories:
                yield self.finding(
                    ctx,
                    node,
                    f"span category {category.value!r} is not registered in "
                    "repro.obs.taxonomy.CATEGORIES; register it (one line) "
                    "so exporters and summaries can see these events",
                )

    @staticmethod
    def _is_tracer(receiver: ast.AST) -> bool:
        dotted = _dotted(receiver)
        if dotted is None:
            return False
        last = dotted.rsplit(".", 1)[-1].lstrip("_").lower()
        return last in ("trace", "tracer")


# ----------------------------------------------------------------------
# RDP005 -- float accumulation hygiene in stats code.
# ----------------------------------------------------------------------
class FloatSumRule(Rule):
    id = "RDP005"
    title = "float accumulation goes through math.fsum"
    severity = "error"
    paths = (
        "*/repro/sim/*",
        "*/repro/obs/*",
        "*/repro/analysis/*",
        "*/repro/experiments/*",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        parents = _parents(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _dotted(node.func) != "sum" or not node.args:
                continue
            if self._float_typed(node.args[0]) or self._result_divided(node, parents):
                yield self.finding(
                    ctx,
                    node,
                    "bare sum() over floats accumulates rounding error "
                    "order-sensitively; use math.fsum()",
                )

    @staticmethod
    def _float_typed(node: ast.AST) -> bool:
        """Heuristic: the summed expression visibly does float math."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func) or ""
                if dotted.rsplit(".", 1)[-1] in ("float", "average", "mean"):
                    return True
        return False

    @staticmethod
    def _result_divided(node: ast.Call, parents: Dict[ast.AST, ast.AST]) -> bool:
        """``sum(xs) / n`` is a mean of floats in all our stats code."""
        parent = parents.get(node)
        return (
            isinstance(parent, ast.BinOp)
            and isinstance(parent.op, ast.Div)
            and parent.left is node
        )


# ----------------------------------------------------------------------
# RDP006 -- public API annotation completeness.
# ----------------------------------------------------------------------
class AnnotationRule(Rule):
    id = "RDP006"
    title = "public functions in core/ and sim/ are fully annotated"
    severity = "error"
    paths = ("*/repro/core/*", "*/repro/sim/*")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_body(ctx, ctx.tree.body, depth=0)

    def _check_body(
        self, ctx: FileContext, body: List[ast.stmt], depth: int
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_body(ctx, node.body, depth)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if depth == 0 and self._is_public(node.name):
                    missing = self._missing(node)
                    if missing:
                        yield self.finding(
                            ctx,
                            node,
                            f"public function {node.name}() is missing "
                            f"annotations: {', '.join(missing)}",
                        )
                # Nested defs are implementation detail; don't recurse
                # into them for *public* checks, but sim process bodies
                # defined inline still get their enclosing def checked.

    @staticmethod
    def _is_public(name: str) -> bool:
        if name == "__init__":
            return True
        return not name.startswith("_")

    @staticmethod
    def _missing(node: ast.stmt) -> List[str]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        ordered = args.posonlyargs + args.args + args.kwonlyargs
        missing = [
            arg.arg
            for index, arg in enumerate(ordered)
            if arg.annotation is None
            and not (index == 0 and arg.arg in ("self", "cls"))
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None:
            missing.append("return")
        return missing


def default_rules(taxonomy: Optional[frozenset] = None) -> List[Rule]:
    """The standard rule set, in id order: flat rules then RDP101."""
    from .flowrules import ResourceLeakRule

    return [
        WallClockRule(),
        UnorderedIterationRule(),
        BlockingCallRule(),
        TraceTaxonomyRule(categories=taxonomy),
        FloatSumRule(),
        AnnotationRule(),
        ResourceLeakRule(),
    ]
