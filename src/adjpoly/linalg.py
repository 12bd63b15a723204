"""Exact integer linear algebra for small dense systems.

Everything here runs over arbitrary-precision integers; neither Fractions
nor floating point are used, so facet identities are decided exactly.
The rank of signed edge vectors (an incidence matrix) is counted by
union-find; every other matrix gets fraction-free Bareiss elimination.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix.

    If every row is a signed edge vector (zero, a lone +-1, or one +1 and
    one -1), union-find counts the rank in time linear in the entries;
    any other row sends the whole matrix to Bareiss elimination.
    """
    rank = _edge_rank(rows)
    if rank is not None:
        return rank
    matrix = [list(row) for row in rows if any(row)]
    if not matrix:
        return 0
    cols = len(matrix[0])
    rank = 0
    col = 0
    while rank < len(matrix) and col < cols:
        pivot_row = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col]), None
        )
        if pivot_row is None:
            col += 1
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        # a unit pivot does not scale the rows it clears, so they skip the
        # gcd pass; that pass only curbs growth and never changes the rank
        unit = pivot in (1, -1)
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col]
            if factor:
                row = matrix[r]
                top = matrix[rank]
                for c in range(col, cols):
                    row[c] = row[c] * pivot - factor * top[c]
                if unit:
                    continue
                g = 0
                for c in range(col, cols):
                    g = gcd(g, row[c])
                if g > 1:
                    for c in range(col, cols):
                        row[c] //= g
        rank += 1
        col += 1
    return rank


def _edge_rank(rows: Sequence[Sequence[int]]) -> int | None:
    """Rank of signed edge vectors, or None if some row is not one.

    Column c is node c + 1 and node 0 stands for the projected-out vertex
    1; a row joins the nodes of its +1 and its -1, a lone +-1 joins node
    0.  Edge vectors form a graphic matroid, so the rank is the number of
    rows that join two components, whatever their signs or repeats.
    """
    parent: list[int] = []
    rank = 0
    for row in rows:
        plus = row.count(1)
        minus = row.count(-1)
        if plus > 1 or minus > 1 or plus + minus + row.count(0) != len(row):
            return None
        u = row.index(1) + 1 if plus else 0
        v = row.index(-1) + 1 if minus else 0
        if u == v:
            continue  # zero row
        if not parent:
            parent = list(range(len(row) + 1))
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            rank += 1
    return rank


def solve_neg_ones(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int] | None:
    """Solve X a = (-1, ..., -1) exactly for square integer X.

    Returns (numerators, denominator) with denominator > 0 so that
    a = numerators / denominator, or None when X is singular.
    """
    n = len(rows)
    matrix = [list(row) + [-1] for row in rows]
    prev = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if matrix[r][k]), None)
        if pivot_row is None:
            return None
        matrix[k], matrix[pivot_row] = matrix[pivot_row], matrix[k]
        pivot = matrix[k][k]
        for i in range(k + 1, n):
            row = matrix[i]
            head = row[k]
            top = matrix[k]
            for j in range(k + 1, n + 1):
                # Bareiss update: exact division keeps entries integral
                row[j] = (row[j] * pivot - head * top[j]) // prev
            row[k] = 0
        prev = pivot
    # Cramer's rule: the last pivot det is the determinant up to sign, and
    # y = det * a is integral, so each division below is exact
    det = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = matrix[i]
        acc = det * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    g = gcd(det, *y)
    if det < 0:
        g = -g
    return tuple(v // g for v in y), det // g


def primitive(vector: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for value in vector:
        g = gcd(g, value)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(value // g for value in vector)
