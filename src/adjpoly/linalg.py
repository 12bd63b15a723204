"""Exact integer linear algebra for small dense systems.

Everything here runs over arbitrary-precision integers with fraction-free
elimination; neither Fractions nor floating point are used, so facet
identities are decided exactly.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix."""
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
