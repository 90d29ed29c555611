"""Kuhn-Munkres (Hungarian) min-cost assignment.

:func:`assign` solves the rectangular assignment problem: given an
``n_rows x n_cols`` cost matrix (entries may be ``None`` for forbidden
pairs), find the cheapest assignment matching every row to a distinct
column (requires ``n_rows <= n_cols``).  The implementation is the
canonical O(n^2 m) shortest-augmenting-path formulation with dual
potentials (Jonker-Volgenant style).  Each call solves from scratch: the
recovery planner (paper Section 3.3) re-solves with edges forbidden by
calling it again on the changed matrix.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import MatchingError

_INF = float("inf")

CostMatrix = Sequence[Sequence[Optional[float]]]


def assign(cost: CostMatrix) -> Tuple[Dict[int, int], float]:
    """Min-cost assignment of every row to a distinct column.

    Returns (row -> col mapping, total cost).  Raises
    :class:`MatchingError` when some row cannot be matched (too few
    columns, or every remaining column forbidden).
    """
    matrix = [[(_INF if entry is None else float(entry)) for entry in row] for row in cost]
    n = len(matrix)
    if n == 0:
        return {}, 0.0
    m = len(matrix[0])
    if any(len(row) != m for row in matrix):
        raise ValueError("ragged cost matrix")
    if n > m:
        raise MatchingError("more rows than columns; transpose the problem")

    # 1-based arrays; index 0 is a virtual source.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
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
                cur = matrix[i0 - 1][j - 1] - u[i0] - v[j]
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
    total = sum(matrix[row][assignment[row]] for row in range(n))
    return dict(enumerate(assignment)), total
