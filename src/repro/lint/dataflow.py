"""A worklist dataflow framework over :mod:`repro.lint.cfg` graphs.

One lattice covers RDP101, **live acquires**: a may-analysis over
gen/kill sets supplied by the rule.  Tokens (grants) enter the set at
acquire sites and leave at release/escape sites; a token alive at the
normal or exceptional exit is a leak.  Exception edges normally carry
the state *before* the raising statement; ``exc_kills`` lets a rule
declare per-node kills that hold even on the exception edge (a
``release`` inside a ``finally`` is trusted to run -- cleanup code is
assumed non-throwing, the standard analyzer concession).

The solver is a plain round-robin worklist over reverse postorder.
States are compared with ``==`` and joined per edge; everything
iterates in deterministic order so the linter's output is byte-stable.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generic, List, Optional, Tuple, TypeVar

from .cfg import CFG, CFGNode

__all__ = [
    "ForwardAnalysis",
    "run_forward",
    "GenKillAnalysis",
]

S = TypeVar("S")


class ForwardAnalysis(Generic[S]):
    """Interface a forward dataflow analysis implements."""

    def initial(self, cfg: CFG) -> S:
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: S) -> S:
        raise NotImplementedError

    def transfer_exc(self, node: CFGNode, state: S) -> S:
        """State carried on an exception edge out of ``node``.

        Default: the in-state -- the statement aborted before taking
        effect.
        """
        return state


def run_forward(cfg: CFG, analysis: ForwardAnalysis[S]) -> Tuple[List[Optional[S]], List[Optional[S]]]:
    """Solve a forward analysis; returns (in_states, out_states) by index.

    Unreached nodes keep ``None``.  Termination relies on the analysis
    being monotone over a finite lattice (all ours are: finite sets
    grow, maps of finite sets grow).
    """
    order = cfg.reverse_postorder()
    position = {index: pos for pos, index in enumerate(order)}
    in_states: List[Optional[S]] = [None] * len(cfg.nodes)
    out_states: List[Optional[S]] = [None] * len(cfg.nodes)
    exc_states: List[Optional[S]] = [None] * len(cfg.nodes)
    in_states[CFG.ENTRY] = analysis.initial(cfg)

    # The worklist holds RPO *positions* (unique ints), so min() below is
    # tie-free and the schedule is deterministic.
    pending = set(range(len(order)))
    while pending:
        pos = min(pending)
        pending.discard(pos)
        index = order[pos]
        node = cfg.nodes[index]
        state = in_states[index]
        if index != CFG.ENTRY:
            state = None
            for pred_index, kind in node.preds:
                source = (
                    exc_states[pred_index] if kind == "exc" else out_states[pred_index]
                )
                if source is None:
                    continue
                state = source if state is None else analysis.join(state, source)
            if state is None:
                continue  # no reaching predecessor yet
            if state == in_states[index] and out_states[index] is not None:
                continue  # fixpoint at this node
            in_states[index] = state
        new_out = analysis.transfer(node, state)
        new_exc = analysis.transfer_exc(node, state) if node.can_raise else state
        if new_out != out_states[index] or new_exc != exc_states[index]:
            out_states[index] = new_out
            exc_states[index] = new_exc
            for succ_index, _kind in node.succs:
                succ_pos = position.get(succ_index)
                if succ_pos is not None:
                    pending.add(succ_pos)
        elif out_states[index] is None:
            out_states[index] = new_out
            exc_states[index] = new_exc
    return in_states, out_states


# ----------------------------------------------------------------------
# Generic gen/kill set analysis (the live-acquire lattice).
# ----------------------------------------------------------------------
T = TypeVar("T")


class GenKillAnalysis(ForwardAnalysis[FrozenSet[T]]):
    """May-analysis over token sets with per-node gen/kill tables.

    ``exc_kills`` are kills that apply even on the exception edge out of
    a node -- used for releases in cleanup blocks, which the leak rule
    trusts to complete.
    """

    def __init__(
        self,
        gens: Dict[int, FrozenSet[T]],
        kills: Dict[int, FrozenSet[T]],
        exc_kills: Optional[Dict[int, FrozenSet[T]]] = None,
    ) -> None:
        self.gens = gens
        self.kills = kills
        self.exc_kills = exc_kills or {}
        self._empty: FrozenSet[T] = frozenset()

    def initial(self, cfg: CFG) -> FrozenSet[T]:
        return self._empty

    def join(self, a: FrozenSet[T], b: FrozenSet[T]) -> FrozenSet[T]:
        return a | b

    def transfer(self, node: CFGNode, state: FrozenSet[T]) -> FrozenSet[T]:
        kills = self.kills.get(node.index)
        gens = self.gens.get(node.index)
        if kills:
            state = state - kills
        if gens:
            state = state | gens
        return state

    def transfer_exc(self, node: CFGNode, state: FrozenSet[T]) -> FrozenSet[T]:
        kills = self.exc_kills.get(node.index)
        return (state - kills) if kills else state
