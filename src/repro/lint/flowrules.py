"""The flow-sensitive rule, RDP101, built on cfg/dataflow.

The flat rules check syntax; this one checks *paths*, over per-function
CFGs (:mod:`repro.lint.cfg`) and the gen/kill worklist analysis
(:mod:`repro.lint.dataflow`).

``RDP101`` resource-leak
    A grant obtained by yielding ``resource.request()`` /
    ``lock.acquire(...)`` must be released on **every** CFG path out of
    the function, including exception edges (a failed ``yield`` inside
    a sim process is how disk/node faults surface).  Releases inside a
    ``finally`` satisfy all paths; any other mention of the grant
    (passed on, returned, guarded) counts as an ownership hand-off.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .cfg import CFG, CFGNode
from .dataflow import GenKillAnalysis, run_forward
from .engine import FileContext, Finding, Rule
from .rules import _dotted

__all__ = ["ResourceLeakRule"]


def _names_loaded(stmt: ast.AST) -> Set[str]:
    """Every plain name the statement mentions (any context)."""
    return {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}


# ----------------------------------------------------------------------
# RDP101 -- resource leaks across CFG paths.
# ----------------------------------------------------------------------
#: token = (grant var, acquiring node index, receiver repr)
_Token = Tuple[str, int, str]


class _NormalPaths(GenKillAnalysis[_Token]):
    """The live-acquire analysis with exception edges carrying nothing."""

    def transfer_exc(self, node: CFGNode, state: FrozenSet[_Token]) -> FrozenSet[_Token]:
        return self._empty


class ResourceLeakRule(Rule):
    id = "RDP101"
    title = "every acquired grant is released on every CFG path"
    severity = "error"
    #: The simulated data plane: where processes run and resources live.
    paths = (
        "*/repro/sim/*",
        "*/repro/core/*",
        "*/repro/hdfs/*",
        "*/repro/faults.py",
    )

    ACQUIRE_METHODS = frozenset({"request", "acquire"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for qualname in sorted(ctx.function_cfgs()):
            cfg = ctx.function_cfgs()[qualname]
            if not cfg.is_generator:
                continue  # grants are obtained by yielding; nothing to do
            yield from self._check_function(ctx, qualname, cfg)

    # -- acquire/release matching ---------------------------------------
    def _acquire_call(self, value: ast.AST) -> Optional[ast.Call]:
        """The ``X.request()/X.acquire()`` call under a yielded RHS."""
        if isinstance(value, ast.IfExp):
            return self._acquire_call(value.body) or self._acquire_call(value.orelse)
        if isinstance(value, ast.Yield) and value.value is not None:
            call = value.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in self.ACQUIRE_METHODS
            ):
                return call
        return None

    @staticmethod
    def _is_release_stmt(stmt: ast.AST, var: str) -> bool:
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "release"
            and bool(stmt.value.args)
            and isinstance(stmt.value.args[0], ast.Name)
            and stmt.value.args[0].id == var
        )

    def _check_function(
        self, ctx: FileContext, qualname: str, cfg: CFG
    ) -> Iterator[Finding]:
        tokens: List[_Token] = []
        gens: Dict[int, FrozenSet[_Token]] = {}
        for node in cfg.statement_nodes():
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                call = self._acquire_call(stmt.value)
                if call is not None:
                    receiver = _dotted(call.func.value) or "<resource>"  # type: ignore[union-attr]
                    token = (stmt.targets[0].id, node.index, receiver)
                    tokens.append(token)
                    gens[node.index] = frozenset({token})
        if not tokens:
            return

        kills: Dict[int, Set[_Token]] = {}
        exc_kills: Dict[int, Set[_Token]] = {}
        released_in_cleanup: Set[_Token] = set()
        for node in cfg.statement_nodes():
            stmt = node.stmt
            assert stmt is not None
            # Compound headers only carry their own expression; simple
            # statements carry everything.  Either way, any mention of
            # the grant var other than its own acquire is a release or
            # an ownership hand-off (returned, passed on, reassigned,
            # guarded) -- the token's fate is decided, so it leaves the
            # may-leak set.  Leaks are paths that never mention it.
            mentioned = _names_loaded(stmt)
            for token in tokens:
                var, acq_index, _receiver = token
                if node.index == acq_index or var not in mentioned:
                    continue
                kills.setdefault(node.index, set()).add(token)
                # The fate is decided on the exception edge too: a
                # release is trusted to complete, and a hand-off/guard
                # means we can no longer claim sole ownership -- either
                # way the token stops being *this* function's leak.
                exc_kills.setdefault(node.index, set()).add(token)
                if self._is_release_stmt(stmt, var) and node.in_cleanup:
                    released_in_cleanup.add(token)
        # Cleanup blocks that release a token are trusted end-to-end:
        # an exception edge out of any cleanup node does not leak tokens
        # whose release lives in cleanup code (the standard non-throwing
        # cleanup concession; without it every try/finally would flag).
        if released_in_cleanup:
            for node in cfg.nodes:
                if node.in_cleanup:
                    exc_kills.setdefault(node.index, set()).update(released_in_cleanup)

        frozen_kills = {index: frozenset(ts) for index, ts in kills.items()}
        analysis = GenKillAnalysis(
            gens,
            frozen_kills,
            {index: frozenset(ts) for index, ts in exc_kills.items()},
        )
        in_states, _out = run_forward(cfg, analysis)
        live = (in_states[CFG.EXIT] or frozenset()) | (in_states[CFG.RAISE_EXIT] or frozenset())
        # Which leaks a path free of exceptions carries.  A finally body
        # is built once, so a token that entered it on an exception edge
        # would otherwise ride on along the finally's normal exit too.
        normal_states, _out = run_forward(cfg, _NormalPaths(gens, frozen_kills))
        live_normal = normal_states[CFG.EXIT] or frozenset()
        for token in tokens:
            var, acq_index, receiver = token
            if token not in live:
                continue
            if token in live_normal:
                how = "a return path"
                fix = "release it on every path (try/finally)"
            else:
                how = "an exception path (e.g. a failed yield)"
                fix = "wrap the critical section in try/finally with the release in the finally"
            yield self.finding(
                ctx,
                cfg.nodes[acq_index].stmt or cfg.func,
                f"grant {var!r} from {receiver}.{{request,acquire}}() can leak: "
                f"{how} leaves {qualname}() without releasing it; {fix}",
            )
