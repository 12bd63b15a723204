"""Exact integer linear algebra for signed edge vectors.

Every configuration point is a signed edge vector, a column of a signed
incidence matrix, so a set of points is a set of edges.  Their rank is
counted by union-find (the graphic matroid), and a square system is
solved by walking its edges, which form a spanning tree exactly when it
is nonsingular.  Only integers are used; no Fractions or floating point.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def edge_ends(row: Sequence[int]) -> tuple[int, int]:
    """The nodes (u, v) of a signed edge vector's +1 and -1.

    Column c is node c + 1 and node 0 stands for the projected-out vertex
    1, so a lone +1 gives (u, 0) and a lone -1 gives (0, v).  A zero row
    gives (0, 0); any row other than zero, a lone +-1, or one +1 and one
    -1 raises ValueError naming the row.
    """
    plus = row.count(1)
    minus = row.count(-1)
    if plus > 1 or minus > 1 or plus + minus + row.count(0) != len(row):
        raise ValueError(f"row {tuple(row)} is not a signed edge vector")
    return (row.index(1) + 1 if plus else 0, row.index(-1) + 1 if minus else 0)


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of signed edge vectors, by union-find.

    Every row must have the first row's length and pass `edge_ends`, else
    ValueError is raised.  A row joins the nodes of its +1 and its -1;
    edge vectors form a graphic matroid, so the rank is the number of rows
    that join two components, whatever their signs or repeats, in time
    linear in the entries.
    """
    width = len(rows[0]) if rows else 0
    parent = list(range(width + 1))
    rank = 0
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row {tuple(row)} has length {len(row)}, expected {width}")
        # edge_ends inlined: certification runs this once per tight point,
        # and a call per row measurably slows `count` and `facets`
        plus = row.count(1)
        minus = row.count(-1)
        if plus > 1 or minus > 1 or plus + minus + row.count(0) != width:
            raise ValueError(f"row {tuple(row)} is not a signed edge vector")
        u = row.index(1) + 1 if plus else 0
        v = row.index(-1) + 1 if minus else 0
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            rank += 1
    return rank


def solve_neg_ones(rows: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Solve X a = (-1, ..., -1) for a square matrix X of signed edge vectors.

    Row (u, v) = `edge_ends(row)` asks a_u - a_v = -1, with a_0 = 0.  The
    n rows are independent exactly when their edges form a spanning tree
    on nodes 0..n; then the walk from node 0 along them fixes every a_v,
    and the solution is integral and unique.  Returns a[1:], or None when
    a node is left unreached, that is, when X is singular.  A row of
    length other than len(rows), or that is not a signed edge vector,
    raises ValueError.
    """
    n = len(rows)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for row in rows:
        if len(row) != n:
            raise ValueError(f"row {tuple(row)} has length {len(row)}, expected {n}")
        u, v = edge_ends(row)
        adjacency[u].append((v, 1))
        adjacency[v].append((u, -1))
    a: list[int | None] = [0] + [None] * n
    stack = [0]
    while stack:
        u = stack.pop()
        for w, step in adjacency[u]:
            if a[w] is None:
                a[w] = a[u] + step
                stack.append(w)
    if None in a:
        return None
    return tuple(a[1:])


def primitive(vector: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for value in vector:
        g = gcd(g, value)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(value // g for value in vector)
