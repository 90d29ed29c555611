"""CFG builder and gen/kill dataflow solver unit tests.

The golden-file tests pin the exact ``CFG.pretty()`` rendering for the
control shapes RDP101 leans on hardest: a ``try/finally``
spanning a yield (exception edges must route *through* the finally), a
``while/else`` (the else runs only on normal exit), and nested
generators (inner bodies are opaque to the outer CFG but get their own
graph).  If the builder's shape drifts, these diffs say exactly where.
"""

import ast

from repro.lint.cfg import CFG, build_cfg, function_cfgs
from repro.lint.dataflow import GenKillAnalysis, run_forward


def cfg_of(source: str, name: str = None):
    tree = ast.parse(source)
    cfgs = function_cfgs(tree)
    if name is None:
        (only,) = cfgs.values()
        return only
    return cfgs[name]


# ----------------------------------------------------------------------
# Golden renderings.
# ----------------------------------------------------------------------
TRY_FINALLY_YIELD = """\
def proc(res):
    grant = yield res.request()
    try:
        yield res.sleep(1.0)
    finally:
        res.release(grant)
    return None
"""

TRY_FINALLY_YIELD_GOLDEN = """\
cfg proc (generator)
  0: entry -> 3
  1: exit -> -
  2: raise -> -
  3: stmt L2 Assign yield -> 2[exc], 5
  4: finally -> 6
  5: stmt L4 Expr yield -> 4[exc], 4
  6: stmt L6 Expr cleanup -> 2[exc], 2, 7
  7: return L7 Return -> 1"""


def test_golden_try_finally_with_yield():
    assert cfg_of(TRY_FINALLY_YIELD).pretty() == TRY_FINALLY_YIELD_GOLDEN


WHILE_ELSE = """\
def scan(items):
    index = 0
    while index < len(items):
        if items[index] is None:
            break
        index += 1
    else:
        return -1
    return index
"""

WHILE_ELSE_GOLDEN = """\
cfg scan
  0: entry -> 3
  1: exit -> -
  2: raise -> -
  3: stmt L2 Assign -> 4
  4: loop L3 While -> 2[exc], 6[true], 9[false]
  5: join -> 10
  6: if L4 If -> 7[true], 8[false]
  7: break L5 Break -> 5
  8: stmt L6 AugAssign -> 4[back]
  9: return L8 Return -> 1
  10: return L9 Return -> 1"""


def test_golden_while_else():
    assert cfg_of(WHILE_ELSE).pretty() == WHILE_ELSE_GOLDEN


NESTED_GENERATORS = """\
def outer(sim):
    total = 0
    def inner(n):
        for i in range(n):
            yield i
    for value in inner(3):
        total += value
        yield sim.sleep(total)
"""

NESTED_OUTER_GOLDEN = """\
cfg outer (generator)
  0: entry -> 3
  1: exit -> -
  2: raise -> -
  3: stmt L2 Assign -> 4
  4: stmt L3 FunctionDef -> 5
  5: loop L6 For -> 2[exc], 7[true], 6[false]
  6: join -> 1
  7: stmt L7 AugAssign -> 8
  8: stmt L8 Expr yield -> 2[exc], 5[back]"""

NESTED_INNER_GOLDEN = """\
cfg outer.inner (generator)
  0: entry -> 3
  1: exit -> -
  2: raise -> -
  3: loop L4 For -> 2[exc], 5[true], 4[false]
  4: join -> 1
  5: stmt L5 Expr yield -> 2[exc], 3[back]"""


def test_golden_nested_generators():
    tree = ast.parse(NESTED_GENERATORS)
    cfgs = function_cfgs(tree)
    assert sorted(cfgs) == ["outer", "outer.inner"]
    assert cfgs["outer"].pretty() == NESTED_OUTER_GOLDEN
    assert cfgs["outer.inner"].pretty() == NESTED_INNER_GOLDEN


# ----------------------------------------------------------------------
# Structural properties.
# ----------------------------------------------------------------------
def test_while_true_without_break_has_no_normal_exit():
    cfg = cfg_of("def spin(sim):\n    while True:\n        yield sim.sleep(1)\n")
    assert not cfg.exit.preds  # no path reaches the normal exit


def test_raise_statement_has_exception_edge_and_flag():
    cfg = cfg_of("def boom():\n    raise ValueError('x')\n")
    raise_nodes = [n for n in cfg.statement_nodes() if n.label == "raise"]
    assert len(raise_nodes) == 1
    assert raise_nodes[0].can_raise
    assert (CFG.RAISE_EXIT, "exc") in raise_nodes[0].succs


def test_catch_all_handler_swallows_the_exception_edge():
    source = (
        "def guarded(op):\n"
        "    try:\n"
        "        op()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    cfg = cfg_of(source)
    # Only the handler body itself could propagate; the dispatch must not.
    dispatch = [n for n in cfg.nodes if n.label == "dispatch"]
    assert len(dispatch) == 1
    assert all(kind != "exc" for _t, kind in dispatch[0].succs)


def test_reverse_postorder_starts_at_entry_and_is_stable():
    cfg = cfg_of(WHILE_ELSE)
    order = cfg.reverse_postorder()
    assert order[0] == CFG.ENTRY
    assert order == cfg.reverse_postorder()


def test_build_cfg_rejects_non_functions():
    import pytest

    with pytest.raises(TypeError):
        build_cfg(ast.parse("x = 1"))


# ----------------------------------------------------------------------
# Dataflow: the gen/kill live-acquire lattice.
# ----------------------------------------------------------------------
def test_genkill_exception_edge_keeps_pre_state():
    # token acquired at node A, released at node B; B can raise -- the
    # exception edge out of B must still carry the token (release did
    # not complete) unless exc_kills says otherwise.
    source = (
        "def proc(res, sim):\n"
        "    grant = yield res.request()\n"
        "    res.release(grant)\n"
    )
    cfg = cfg_of(source)
    acquire, release = list(cfg.statement_nodes())
    token = ("grant",)
    plain = GenKillAnalysis(
        {acquire.index: frozenset({token})}, {release.index: frozenset({token})}
    )
    in_states, _ = run_forward(cfg, plain)
    assert token in in_states[CFG.RAISE_EXIT]  # may leak via the release itself
    trusted = GenKillAnalysis(
        {acquire.index: frozenset({token})},
        {release.index: frozenset({token})},
        exc_kills={release.index: frozenset({token})},
    )
    in_states, _ = run_forward(cfg, trusted)
    # The acquire's own exc edge still reaches RAISE_EXIT state-free.
    assert in_states[CFG.RAISE_EXIT] == frozenset()
    assert in_states[CFG.EXIT] == frozenset()
