"""Kuhn-Munkres (Hungarian) min-cost assignment.

``hungarian(cost)`` solves the rectangular assignment problem: given an
``n_rows x n_cols`` cost matrix (entries may be ``None`` for forbidden
pairs), find the cheapest assignment matching every row to a distinct
column (requires ``n_rows <= n_cols``).  The implementation is the
canonical O(n^2 m) shortest-augmenting-path formulation with dual
potentials (Jonker-Volgenant style).

:class:`DynamicHungarian` supports the recovery planner's loop (paper
Section 3.3): solve, then *remove an edge* (an assignment would violate
1-sharing) or *update a cost* (a disk's load changed), and re-solve.
Re-solves warm-start from the previous dual potentials -- the practical
payoff of the Mills-Tettey dynamic Hungarian algorithm -- after clamping
any potential made infeasible by the update.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MatchingError

_INF = float("inf")

CostMatrix = Sequence[Sequence[Optional[float]]]


def _solve(
    cost: List[List[float]],
    row_potential: Optional[List[float]] = None,
    col_potential: Optional[List[float]] = None,
) -> Tuple[List[int], List[float], List[float], float]:
    """Shortest-augmenting-path assignment on an n_rows <= n_cols matrix.

    Uses 1-based arrays internally (index 0 is a virtual source).  The
    supplied potentials, if any, must be dual-feasible
    (``cost[i][j] >= u[i] + v[j]`` for every finite entry).

    Returns (row -> col assignment, row potentials, col potentials,
    total cost).  ``inf`` entries are forbidden.
    """
    n = len(cost)
    m = len(cost[0]) if n else 0
    if n == 0:
        return [], [], [], 0.0
    if n > m:
        raise MatchingError("more rows than columns; transpose the problem")

    u = [0.0] + (list(row_potential) if row_potential is not None else [0.0] * n)
    v = [0.0] + (list(col_potential) if col_potential is not None else [0.0] * m)
    # p[j] = 1-based row currently matched to 1-based column j (0 = free).
    p = [0] * (m + 1)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _INF
            j1 = -1
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 == -1 or delta == _INF:
                raise MatchingError(
                    f"no feasible assignment: row {i - 1} cannot be matched"
                )
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        # Augment along the alternating path back to the source.
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [-1] * n
    for j in range(1, m + 1):
        if p[j] != 0:
            assignment[p[j] - 1] = j - 1
    total = sum(cost[r][assignment[r]] for r in range(n))
    return assignment, u[1:], v[1:], total


def hungarian(cost: CostMatrix) -> Tuple[Dict[int, int], float]:
    """Solve min-cost assignment; returns (row->col mapping, total cost).

    Entries that are ``None`` mark forbidden pairs.  Raises
    :class:`MatchingError` if no complete assignment of rows exists.
    """
    matrix = [
        [(_INF if entry is None else float(entry)) for entry in row] for row in cost
    ]
    if not matrix:
        return {}, 0.0
    widths = {len(row) for row in matrix}
    if len(widths) != 1:
        raise ValueError("ragged cost matrix")
    assignment, _u, _v, total = _solve(matrix)
    return {row: col for row, col in enumerate(assignment)}, total


class DynamicHungarian:
    """Re-solvable assignment with edge deletion and cost updates.

    The solver keeps dual potentials between solves, so after a local
    change (one edge removed, one cost bumped) the next solve converges
    quickly.  Raising a cost or removing an edge never breaks dual
    feasibility; lowering a cost may, so the affected row potential is
    clamped to restore ``cost >= u + v``.
    """

    def __init__(self, cost: CostMatrix) -> None:
        self._matrix: List[List[float]] = [
            [(_INF if entry is None else float(entry)) for entry in row]
            for row in cost
        ]
        widths = {len(row) for row in self._matrix}
        if self._matrix and len(widths) != 1:
            raise ValueError("ragged cost matrix")
        self._row_potential: Optional[List[float]] = None
        self._col_potential: Optional[List[float]] = None

    def remove_edge(self, row: int, col: int) -> None:
        """Forbid the (row, col) pair."""
        self._matrix[row][col] = _INF

    def update_cost(self, row: int, col: int, new_cost: float) -> None:
        self._matrix[row][col] = float(new_cost)
        self._restore_feasibility(row, col)

    def _restore_feasibility(self, row: int, col: int) -> None:
        if self._row_potential is None or self._col_potential is None:
            return
        slack = (
            self._matrix[row][col]
            - self._row_potential[row]
            - self._col_potential[col]
        )
        if slack < 0:
            self._row_potential[row] += slack

    def solve(self) -> Tuple[Dict[int, int], float]:
        assignment, u, v, total = _solve(
            self._matrix, self._row_potential, self._col_potential
        )
        self._row_potential, self._col_potential = u, v
        return {row: col for row, col in enumerate(assignment)}, total
