"""Unit and property tests for the matching substrate.

networkx is available offline and serves as the reference implementation
for cross-checking both maximum matching size and min-cost assignment
totals.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MatchingError
from repro.matching import DynamicHungarian, hopcroft_karp


def hungarian(cost):
    """One cold solve: (row->col mapping, total cost)."""
    return DynamicHungarian(cost).solve()


# ----------------------------------------------------------------------
# Hopcroft-Karp.
# ----------------------------------------------------------------------
def test_hk_simple_perfect_matching():
    graph = {"a": ["x", "y"], "b": ["x"], "c": ["z"]}
    matching = hopcroft_karp(graph)
    assert len(matching) == 3
    assert matching["b"] == "x"
    assert set(matching.values()) == {"x", "y", "z"}


def test_hk_maximum_but_not_perfect():
    graph = {"a": ["x"], "b": ["x"], "c": ["x"]}
    matching = hopcroft_karp(graph)
    assert len(matching) == 1


def test_hk_empty_graph():
    assert hopcroft_karp({}) == {}


def test_hk_left_vertex_with_no_edges():
    matching = hopcroft_karp({"a": [], "b": ["x"]})
    assert matching == {"b": "x"}


def test_hk_matching_is_valid():
    graph = {i: [(i + d) % 7 for d in (0, 1, 2)] for i in range(7)}
    matching = hopcroft_karp(graph)
    # No right vertex used twice, every edge exists.
    assert len(set(matching.values())) == len(matching)
    for left, right in matching.items():
        assert right in graph[left]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_hk_matches_networkx_cardinality(seed):
    import random

    rng = random.Random(seed)
    n_left, n_right = rng.randint(1, 10), rng.randint(1, 10)
    graph = {}
    nx_graph = nx.Graph()
    for left in range(n_left):
        edges = [r for r in range(n_right) if rng.random() < 0.4]
        graph[f"L{left}"] = [f"R{r}" for r in edges]
        nx_graph.add_node(f"L{left}", bipartite=0)
        for r in edges:
            nx_graph.add_edge(f"L{left}", f"R{r}")
    ours = hopcroft_karp(graph)
    left_nodes = {n for n in nx_graph if n.startswith("L")}
    theirs = nx.bipartite.maximum_matching(nx_graph, top_nodes=left_nodes)
    # networkx returns both directions; count left-side entries.
    theirs_size = sum(1 for k in theirs if k.startswith("L"))
    assert len(ours) == theirs_size


# ----------------------------------------------------------------------
# Hungarian.
# ----------------------------------------------------------------------
def test_hungarian_trivial():
    assignment, total = hungarian([[1.0]])
    assert assignment == {0: 0}
    assert total == 1.0


def test_hungarian_classic_example():
    cost = [
        [4, 1, 3],
        [2, 0, 5],
        [3, 2, 2],
    ]
    assignment, total = hungarian(cost)
    assert total == 5.0  # 1 + 2 + 2
    assert assignment == {0: 1, 1: 0, 2: 2}


def test_hungarian_rectangular_more_cols():
    cost = [
        [10, 1, 10, 10],
        [10, 10, 2, 10],
    ]
    assignment, total = hungarian(cost)
    assert assignment == {0: 1, 1: 2}
    assert total == 3.0


def test_hungarian_forbidden_edges():
    cost = [
        [None, 1.0],
        [1.0, None],
    ]
    assignment, total = hungarian(cost)
    assert assignment == {0: 1, 1: 0}
    assert total == 2.0


def test_hungarian_infeasible_raises():
    with pytest.raises(MatchingError):
        hungarian([[None, None], [1.0, 2.0]])


def test_hungarian_more_rows_than_cols_raises():
    with pytest.raises(MatchingError):
        hungarian([[1.0], [2.0]])


def test_hungarian_empty():
    assignment, total = hungarian([])
    assert assignment == {}
    assert total == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_hungarian_matches_scipy_reference(seed):
    import random

    from scipy.optimize import linear_sum_assignment

    rng = random.Random(seed)
    n = rng.randint(1, 8)
    m = rng.randint(n, 9)
    cost = [[rng.randint(0, 50) for _ in range(m)] for _ in range(n)]
    assignment, total = hungarian(cost)
    rows, cols = linear_sum_assignment(cost)
    reference = sum(cost[r][c] for r, c in zip(rows, cols))
    assert total == pytest.approx(reference)
    # Also check the assignment is consistent and unique.
    assert len(set(assignment.values())) == n


# ----------------------------------------------------------------------
# Dynamic Hungarian.
# ----------------------------------------------------------------------
def test_dynamic_resolve_after_edge_removal():
    solver = DynamicHungarian([[1, 5], [5, 1]])
    assignment, total = solver.solve()
    assert total == 2.0
    solver.remove_edge(0, 0)
    assignment, total = solver.solve()
    assert assignment == {0: 1, 1: 0}
    assert total == 10.0


def test_dynamic_resolve_after_cost_update():
    solver = DynamicHungarian([[1, 5], [5, 1]])
    solver.solve()
    solver.update_cost(0, 1, 0.5)
    solver.update_cost(1, 0, 0.5)
    assignment, total = solver.solve()
    assert assignment == {0: 1, 1: 0}
    assert total == 1.0


def test_dynamic_lowering_cost_keeps_correctness():
    solver = DynamicHungarian([[10, 20, 30], [20, 10, 30], [30, 20, 10]])
    _, total = solver.solve()
    assert total == 30.0
    # Lowering costs can break dual feasibility of the warm start; the
    # solver must clamp and still find the new optimum.
    solver.update_cost(0, 2, 1.0)
    solver.update_cost(1, 0, 1.0)
    solver.update_cost(2, 1, 1.0)
    assignment, total = solver.solve()
    assert assignment == {0: 2, 1: 0, 2: 1}
    assert total == 3.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_dynamic_matches_fresh_solve(seed):
    import random

    from scipy.optimize import linear_sum_assignment

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    cost = [[rng.randint(1, 30) for _ in range(n)] for _ in range(n)]
    solver = DynamicHungarian(cost)
    solver.solve()
    # Apply a few random mutations, keeping at least one edge per row.
    for _ in range(3):
        row, col = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.5:
            cost[row][col] = rng.randint(1, 30)
            solver.update_cost(row, col, cost[row][col])
        else:
            cost[row][col] = 10**6  # effectively forbidden but feasible
            solver.update_cost(row, col, cost[row][col])
    _, total = solver.solve()
    rows, cols = linear_sum_assignment(cost)
    reference = sum(cost[r][c] for r, c in zip(rows, cols))
    assert total == pytest.approx(reference)
