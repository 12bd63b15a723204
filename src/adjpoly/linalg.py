"""Exact integer linear algebra for configuration points.

Everything here runs over arbitrary-precision integers; neither Fractions
nor floating point are used, so facet identities are decided exactly.
The rank of signed edge vectors (an incidence matrix) is counted by
union-find; square systems are solved by fraction-free Bareiss
elimination.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of signed edge vectors, by union-find.

    Every row must be zero, a lone +-1, or one +1 and one -1; any other
    row raises ValueError.  Column c is node c + 1 and node 0 stands for
    the projected-out vertex 1; a row joins the nodes of its +1 and its
    -1, a lone +-1 joins node 0.  Edge vectors form a graphic matroid, so
    the rank is the number of rows that join two components, whatever
    their signs or repeats, in time linear in the entries.
    """
    parent: list[int] = []
    rank = 0
    for row in rows:
        plus = row.count(1)
        minus = row.count(-1)
        if plus > 1 or minus > 1 or plus + minus + row.count(0) != len(row):
            raise ValueError(f"row {tuple(row)} is not a signed edge vector")
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
