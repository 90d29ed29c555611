"""Per-function control-flow graphs for the flow-sensitive lint rule.

The flat AST rules (RDP001..RDP006) ask "does this syntax appear?";
RDP101 asks "is there a *path* on which this happens?" -- a grant
acquired and never released on an exception path.  Answering path
questions needs a CFG, and this module builds one per function:

* one :class:`CFGNode` per simple statement, plus synthetic nodes for
  entry/exit, the *exceptional* exit, loop heads, except dispatch, and
  ``finally`` entries;
* edges labelled by kind: ``next`` (fall-through), ``true``/``false``
  (branch outcomes), ``back`` (loop back-edge), and ``exc`` --
  statements that can raise get an edge to the innermost handler /
  ``finally`` / the exceptional exit, carrying the state *before* the
  statement (the statement aborted);
* ``finally`` bodies are built once and routed conservatively: every
  control kind that entered (normal completion, exception, return,
  break, continue) leaves from the finally's end toward its own
  continuation, so a release inside ``finally`` dominates every exit
  the way CPython guarantees it does;
* yield points (``yield`` / ``yield from`` in the function's own body,
  not nested defs or lambdas) are marked on their node -- they are
  where a simulation process is suspended and the world may change.

Determinism: node indices follow source order, successor lists follow
construction order, and :meth:`CFG.pretty` renders the whole graph as
stable text -- the golden-file CFG tests diff that rendering directly.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["CFGNode", "CFG", "build_cfg", "function_cfgs", "qualified_functions"]

# Control kinds routed through ``finally`` frames.
_NEXT = "next"
_EXC = "exc"
_RET = "return"
_BRK = "break"
_CONT = "continue"

#: Exception names a bare-enough handler catches everything with.
_CATCH_ALL = frozenset({"Exception", "BaseException"})


class CFGNode:
    """One CFG vertex: a simple statement or a synthetic control point."""

    __slots__ = ("index", "stmt", "label", "succs", "preds", "is_yield", "can_raise", "in_cleanup")

    def __init__(self, index: int, stmt: Optional[ast.AST], label: str) -> None:
        self.index = index
        self.stmt = stmt
        self.label = label
        self.succs: List[Tuple[int, str]] = []
        self.preds: List[Tuple[int, str]] = []
        self.is_yield = False
        self.can_raise = False
        #: True for nodes built from a ``finally`` body (cleanup code).
        self.in_cleanup = False

    def describe(self) -> str:
        if self.stmt is None:
            return self.label
        lineno = getattr(self.stmt, "lineno", 0)
        return f"{self.label} L{lineno} {type(self.stmt).__name__}"


class CFG:
    """The control-flow graph of one function body."""

    ENTRY = 0
    EXIT = 1
    RAISE_EXIT = 2

    def __init__(self, func: ast.AST, name: str) -> None:
        self.func = func
        self.name = name
        self.nodes: List[CFGNode] = []
        self.is_generator = False

    @property
    def exit(self) -> CFGNode:
        return self.nodes[self.EXIT]

    def statement_nodes(self) -> Iterator[CFGNode]:
        for node in self.nodes:
            if node.stmt is not None:
                yield node

    def reverse_postorder(self) -> List[int]:
        """Node indices in reverse postorder from the entry (stable)."""
        seen = [False] * len(self.nodes)
        order: List[int] = []
        stack: List[Tuple[int, int]] = [(self.ENTRY, 0)]
        seen[self.ENTRY] = True
        while stack:
            index, child = stack[-1]
            succs = self.nodes[index].succs
            if child < len(succs):
                stack[-1] = (index, child + 1)
                target = succs[child][0]
                if not seen[target]:
                    seen[target] = True
                    stack.append((target, 0))
            else:
                order.append(index)
                stack.pop()
        order.reverse()
        return order

    def pretty(self) -> str:
        """A stable text rendering, diffed by the golden-file tests."""
        lines = [f"cfg {self.name}{' (generator)' if self.is_generator else ''}"]
        for node in self.nodes:
            flags = ""
            if node.is_yield:
                flags += " yield"
            if node.in_cleanup:
                flags += " cleanup"
            succs = ", ".join(
                f"{target}" if kind == "next" else f"{target}[{kind}]"
                for target, kind in node.succs
            )
            lines.append(f"  {node.index}: {node.describe()}{flags} -> {succs or '-'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Statement classification helpers.
# ----------------------------------------------------------------------
def _scan_expr(node: Optional[ast.AST]) -> Tuple[bool, bool]:
    """(can_raise, has_yield) for an expression/statement subtree.

    Nested function bodies and lambdas are opaque: code inside them does
    not run at this statement, so their calls and yields do not count.
    """
    if node is None:
        return (False, False)
    can_raise = False
    has_yield = False
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(current, (ast.Yield, ast.YieldFrom, ast.Await)):
            has_yield = True
            can_raise = True
        elif isinstance(current, (ast.Call, ast.Raise, ast.Assert)):
            can_raise = True
        stack.extend(ast.iter_child_nodes(current))
    return (can_raise, has_yield)


# ----------------------------------------------------------------------
# Frames: the control context a statement executes under.
# ----------------------------------------------------------------------
class _LoopFrame:
    __slots__ = ("brk", "cont")

    def __init__(self, brk: int, cont: int) -> None:
        self.brk = brk
        self.cont = cont


class _ExceptFrame:
    __slots__ = ("dispatch",)

    def __init__(self, dispatch: int) -> None:
        self.dispatch = dispatch


class _FinallyFrame:
    __slots__ = ("entry", "pending")

    def __init__(self, entry: int) -> None:
        self.entry = entry
        self.pending: List[str] = []  # control kinds routed in, in order

    def note(self, kind: str) -> None:
        if kind not in self.pending:
            self.pending.append(kind)


Frames = Tuple[object, ...]  # innermost first
Frontier = List[Tuple[int, str]]  # (node index, edge kind into the successor)


class _Builder:
    def __init__(self, func: ast.AST, name: str) -> None:
        self.cfg = CFG(func, name)
        self._node(None, "entry")
        self._node(None, "exit")
        self._node(None, "raise")
        self._in_cleanup = False

    # -- graph primitives ----------------------------------------------
    def _node(self, stmt: Optional[ast.AST], label: str) -> int:
        node = CFGNode(len(self.cfg.nodes), stmt, label)
        node.in_cleanup = getattr(self, "_in_cleanup", False)
        self.cfg.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int, kind: str) -> None:
        if (dst, kind) not in self.cfg.nodes[src].succs:
            self.cfg.nodes[src].succs.append((dst, kind))
            self.cfg.nodes[dst].preds.append((src, kind))

    def _connect(self, frontier: Frontier, dst: int) -> None:
        for src, kind in frontier:
            self._edge(src, dst, kind)

    # -- control routing through finally frames ------------------------
    def _resolve(self, kind: str, frames: Frames) -> Optional[int]:
        """Where control of ``kind`` goes from inside ``frames``.

        Walks frames innermost-first; a ``finally`` frame intercepts
        every kind (noting it for onward routing when the finally body
        completes); an except frame intercepts only exceptions; a loop
        frame intercepts break/continue.
        """
        for frame in frames:
            if isinstance(frame, _FinallyFrame):
                frame.note(kind)
                return frame.entry
            if isinstance(frame, _ExceptFrame) and kind == _EXC:
                return frame.dispatch
            if isinstance(frame, _LoopFrame) and kind in (_BRK, _CONT):
                return frame.brk if kind == _BRK else frame.cont
        if kind == _EXC:
            return CFG.RAISE_EXIT
        if kind == _RET:
            return CFG.EXIT
        return None  # unreachable: break/continue outside a loop

    def _route(self, kind: str, frontier: Frontier, frames: Frames) -> None:
        target = self._resolve(kind, frames)
        if target is not None:
            self._connect(frontier, target)

    # -- statement lists ------------------------------------------------
    def build(self) -> CFG:
        body = self.cfg.func.body  # type: ignore[attr-defined]
        frontier = self._body(body, [(CFG.ENTRY, _NEXT)], ())
        self._connect(frontier, CFG.EXIT)
        self.cfg.is_generator = any(n.is_yield for n in self.cfg.nodes)
        return self.cfg

    def _body(self, stmts: Sequence[ast.stmt], frontier: Frontier, frames: Frames) -> Frontier:
        for stmt in stmts:
            if not frontier:
                break  # unreachable code: stop here, keep the graph small
            frontier = self._statement(stmt, frontier, frames)
        return frontier

    def _statement(self, stmt: ast.stmt, frontier: Frontier, frames: Frames) -> Frontier:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier, frames)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier, frames)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier, frames)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier, frames)
        if isinstance(stmt, ast.Return):
            node = self._simple(stmt, frontier, frames, label="return")
            self._route(_RET, [(node, _NEXT)], frames)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._simple(stmt, frontier, frames, label="raise", exc=False)
            self.cfg.nodes[node].can_raise = True
            self._route(_EXC, [(node, _EXC)], frames)
            return []
        if isinstance(stmt, ast.Break):
            node = self._simple(stmt, frontier, frames, label="break")
            self._route(_BRK, [(node, _NEXT)], frames)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._simple(stmt, frontier, frames, label="continue")
            self._route(_CONT, [(node, _NEXT)], frames)
            return []
        node = self._simple(stmt, frontier, frames)
        return [(node, _NEXT)]

    def _simple(
        self,
        stmt: ast.stmt,
        frontier: Frontier,
        frames: Frames,
        label: str = "stmt",
        exc: bool = True,
    ) -> int:
        node = self._node(stmt, label)
        self._connect(frontier, node)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return node  # a def/class statement neither raises nor yields here
        can_raise, has_yield = _scan_expr(stmt)
        self.cfg.nodes[node].is_yield = has_yield
        if can_raise and exc:
            self.cfg.nodes[node].can_raise = True
            self._route(_EXC, [(node, _EXC)], frames)
        return node

    # -- compound statements --------------------------------------------
    def _if(self, stmt: ast.If, frontier: Frontier, frames: Frames) -> Frontier:
        node = self._node(stmt, "if")
        self._connect(frontier, node)
        can_raise, has_yield = _scan_expr(stmt.test)
        self.cfg.nodes[node].is_yield = has_yield
        if can_raise:
            self.cfg.nodes[node].can_raise = True
            self._route(_EXC, [(node, _EXC)], frames)
        then_front = self._body(stmt.body, [(node, "true")], frames)
        if stmt.orelse:
            else_front = self._body(stmt.orelse, [(node, "false")], frames)
        else:
            else_front = [(node, "false")]
        return then_front + else_front

    def _loop(self, stmt: ast.stmt, frontier: Frontier, frames: Frames) -> Frontier:
        assert isinstance(stmt, (ast.While, ast.For, ast.AsyncFor))
        head = self._node(stmt, "loop")
        self._connect(frontier, head)
        header = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        can_raise, has_yield = _scan_expr(header)
        self.cfg.nodes[head].is_yield = has_yield
        if can_raise:
            self.cfg.nodes[head].can_raise = True
            self._route(_EXC, [(head, _EXC)], frames)
        after = self._node(None, "join")
        loop_frames: Frames = (_LoopFrame(brk=after, cont=head),) + frames
        body_front = self._body(stmt.body, [(head, "true")], loop_frames)
        for src, _kind in body_front:
            self._edge(src, head, "back")
        infinite = (
            isinstance(stmt, ast.While)
            and isinstance(stmt.test, ast.Constant)
            and bool(stmt.test.value)
        )
        if not infinite:
            # Normal loop exit (condition false / iterator exhausted)
            # runs the else block, then falls through to the join.
            else_front = self._body(stmt.orelse, [(head, "false")], frames)
            self._connect(else_front, after)
        if not self.cfg.nodes[after].preds:
            # Nothing ever reaches the join (`while True` with no break):
            # drop it from play by returning an empty frontier.
            return []
        return [(after, _NEXT)]

    def _with(self, stmt: ast.stmt, frontier: Frontier, frames: Frames) -> Frontier:
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        node = self._node(stmt, "with")
        self._connect(frontier, node)
        self.cfg.nodes[node].can_raise = True  # __enter__ can raise
        self._route(_EXC, [(node, _EXC)], frames)
        return self._body(stmt.body, [(node, _NEXT)], frames)

    def _try(self, stmt: ast.Try, frontier: Frontier, frames: Frames) -> Frontier:
        fin_frame: Optional[_FinallyFrame] = None
        if stmt.finalbody:
            fin_frame = _FinallyFrame(self._node(None, "finally"))
        inner: Frames = ((fin_frame,) + frames) if fin_frame else frames

        if stmt.handlers:
            dispatch = self._node(None, "dispatch")
            body_front = self._body(stmt.body, frontier, (_ExceptFrame(dispatch),) + inner)
            handler_fronts: Frontier = []
            catch_all = False
            for handler in stmt.handlers:
                h_node = self._node(handler, "except")
                self._edge(dispatch, h_node, _NEXT)
                handler_fronts += self._body(handler.body, [(h_node, _NEXT)], inner)
                catch_all = catch_all or self._catches_everything(handler)
            if not catch_all:
                # The exception may match no handler and keep propagating.
                self._route(_EXC, [(dispatch, _EXC)], inner)
        else:
            body_front = self._body(stmt.body, frontier, inner)
            handler_fronts = []

        else_front = self._body(stmt.orelse, body_front, inner) if stmt.orelse else body_front
        ends = else_front + handler_fronts

        if fin_frame is None:
            return ends

        # Route normal completion into the finally, build its body once,
        # then fan its end out toward every continuation that entered.
        if ends:
            self._connect(ends, fin_frame.entry)
            fin_frame.note(_NEXT)
        was_cleanup = self._in_cleanup
        self._in_cleanup = True
        fin_end = self._body(stmt.finalbody, [(fin_frame.entry, _NEXT)], frames)
        self._in_cleanup = was_cleanup
        out: Frontier = []
        for kind in fin_frame.pending:
            if kind == _NEXT:
                out += fin_end
            else:
                # The finally completed, *then* the suspended control kind
                # resumes: a normal edge toward the outer continuation.
                self._route(kind, fin_end, frames)
        return out

    @staticmethod
    def _catches_everything(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        names = []
        if isinstance(handler.type, ast.Tuple):
            names = [getattr(e, "id", getattr(e, "attr", "")) for e in handler.type.elts]
        else:
            names = [getattr(handler.type, "id", getattr(handler.type, "attr", ""))]
        return any(name in _CATCH_ALL for name in names)


def build_cfg(func: ast.AST, name: str = "") -> CFG:
    """Build the CFG of one ``FunctionDef`` / ``AsyncFunctionDef``."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise TypeError(f"build_cfg wants a function definition, got {type(func).__name__}")
    return _Builder(func, name or func.name).build()


def qualified_functions(tree: ast.AST) -> List[Tuple[str, ast.AST]]:
    """Every function in a module, with dotted qualnames, in source order.

    Nested functions are included (``outer.<locals>.inner`` style is
    flattened to ``outer.inner`` -- the lint rules only need a stable,
    human-readable handle).
    """
    out: List[Tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                out.append((qualname, child))
                visit(child, f"{qualname}.")

    visit(tree, "")
    return out


def function_cfgs(tree: ast.AST) -> Dict[str, CFG]:
    """CFGs for every function in a module, keyed by qualname."""
    cfgs: Dict[str, CFG] = {}
    for qualname, func in qualified_functions(tree):
        cfgs[qualname] = build_cfg(func, qualname)
    return cfgs
