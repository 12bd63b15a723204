"""Exact integer linear algebra for signed edge vectors, taken as edges.

Every configuration point is a signed edge vector, a column of a signed
incidence matrix, so this module takes a set of points as their (t, h)
vertex pairs.  Their rank is counted by merging components (the graphic
matroid), and a square system is solved by walking its edges, which form
a spanning tree exactly when it is nonsingular.  Only integers are used.
"""

from __future__ import annotations

from math import gcd
from typing import Collection, Sequence


def integer_rank(edges: Collection[tuple[int, int]]) -> int:
    """Rank over the rationals of the signed edge vectors of edges.

    Each (u, v) is a pair of vertex labels, any ints, used as dict keys.
    Edge vectors form a graphic matroid, so the rank counts the edges that
    join two components, whatever their orientation or repeats; a loop
    (u, u), the zero vector, adds nothing.  Each vertex maps to its
    component's vertex list, and a join moves the smaller list into the
    larger, so each vertex moves O(log k) times and k edges cost O(k log k).
    """
    component: dict[int, list[int]] = {}
    rank = 0
    for u, v in edges:
        cu = component.get(u)
        cv = component.get(v)
        if cu is None:
            if cv is not None:
                cv.append(u)
                component[u] = cv
            elif u != v:
                component[u] = component[v] = [u, v]
            else:
                continue
        elif cv is None:
            cu.append(v)
            component[v] = cu
        elif cu is cv:
            continue
        else:
            if len(cu) < len(cv):
                cu, cv = cv, cu
            cu += cv
            for w in cv:
                component[w] = cu
        rank += 1
    return rank


def solve_neg_ones(directed_edges: Sequence[tuple[int, int]]) -> tuple[int, ...] | None:
    """Potentials a with a_1 = 0 and a_t - a_h = -1 on n edges (t, h).

    The edges lie on vertices 1..n+1 and are the rows of a square system
    X a = (-1, ..., -1) in a_2, ..., a_{n+1}.  They are independent
    exactly when they form a spanning tree; then the walk from vertex 1
    along them fixes every a_v, and the solution is integral and unique.
    Returns (a_2, ..., a_{n+1}), or None when a vertex is left unreached,
    that is, when X is singular.
    """
    n = len(directed_edges)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n + 2)]
    for t, h in directed_edges:
        adjacency[t].append((h, 1))
        adjacency[h].append((t, -1))
    a: list[int | None] = [0, 0] + [None] * n  # a[0] pads vertex labels
    stack = [1]
    while stack:
        u = stack.pop()
        for w, step in adjacency[u]:
            if a[w] is None:
                a[w] = a[u] + step
                stack.append(w)
    if None in a:
        return None
    return tuple(a[2:])


def primitive(vector: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*vector)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if g == 1:
        return tuple(vector)
    return tuple([value // g for value in vector])
