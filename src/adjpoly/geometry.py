"""Exact configuration points of a graph and the facets they span.

The configuration of a graph G on vertices 1..N is the set of vectors
+-(e_{i-1} - e_{j-1}) in R^(N-1), one pair per edge {i,j}, with e_0 = 0
(vertex 1's axis is projected out).  Inside the package a point travels
as the directed edge it encodes, one of Graph.directed_edges, and
`edge_point` or `points` encodes it for output.  All facet decisions are
made in exact integer arithmetic; no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from . import linalg
from .errors import InternalInconsistency, NotAFacet, TooLarge, ZeroNormal, show
from .graphs import Edge, Graph

Point = tuple[int, ...]

BRUTE_FORCE_MAX_DIM = 8
BRUTE_FORCE_MAX_POINTS = 40


def edge_point(n: int, tail: int, head: int) -> Point:
    """Reduced vector e_{tail-1} - e_{head-1}; vertex 1 contributes nothing."""
    coords = [0] * n
    if tail > 1:
        coords[tail - 2] += 1
    if head > 1:
        coords[head - 2] -= 1
    return tuple(coords)


def points(g: Graph) -> tuple[Point, ...]:
    """The 2m configuration points of g, in g.directed_edges order."""
    return tuple(edge_point(g.n, t, h) for t, h in g.directed_edges)


class Facet(NamedTuple):
    """A facet of the configuration: its normal and its tight points.

    normal is the primitive integer inner normal, read as the potentials
    of vertices 2..N with vertex 1 at 0.  It attains minimum -1 over the
    configuration with no rescaling: symmetric edge polytopes are
    reflexive (Matsui, Higashitani, Nagazawa, Ohsugi and Hibi, 2011), so
    every facet is {x : <x, a> = -1} for an integer a, and that a is
    primitive.  point_indices lists the tight points in configuration
    order, as indices into g.directed_edges, the edges they encode.  A
    named tuple: ==, hash and order are the tuple's, and _replace copies.
    """

    normal: tuple[int, ...]
    point_indices: tuple[int, ...]


def verify_facet(g: Graph, normal: Sequence[int]) -> Facet:
    """Check that a normal supports a facet and build it.

    The normal a is a sequence of ints (not bools), read as vertex
    potentials with vertex 1 at 0, so the point of (t, h) takes a_t - a_h
    in O(1); any other entry, or a normal that is not iterable, raises
    ValueError.  The minimizer set of <., normal> must be
    (n-1)-dimensional, else ZeroNormal or NotAFacet is raised; as the
    minimum is negative, that is linear rank n of the tight points, which
    `linalg.integer_rank` counts by merging the components of their
    edges.  By reflexivity the primitive normal of a facet then attains
    exactly -1 on it and > -1 elsewhere; any other minimum raises
    InternalInconsistency.  A call whose tight edges are the set last
    ranked on g (g.tight_rank) reuses that rank, as every facet of a class
    after its first does in `facets.enumerate_facet_classes`.
    """
    try:
        coeffs = tuple(normal)
    except TypeError:
        raise ValueError(f"normal {show(normal)} is not a sequence of ints") from None
    if not all([type(c) is int for c in coeffs]):
        raise ValueError(f"normal {show(coeffs)} has an entry that is not an integer")
    if len(coeffs) != g.n:
        raise ValueError(f"normal has length {len(coeffs)}, expected {g.n}")
    if not any(coeffs):
        raise ZeroNormal("inner normal must be nonzero")
    coeffs = linalg.primitive(coeffs)

    pot = (0, 0) + coeffs
    edges = g.directed_edges
    values = [pot[t] - pot[h] for t, h in edges]
    minimum = min(values)
    min_indices = [i for i, v in enumerate(values) if v == minimum]
    # a nonzero normal on a connected graph differs across some edge, and
    # both orientations of it are points, so the minimum is < 0: the tight
    # points lie on a hyperplane that misses the origin and their affine
    # dimension is their rank - 1.  The rank depends only on the undirected
    # edges, so they are the key; the (key, rank) pair is replaced whole
    key = tuple([i >> 1 for i in min_indices])
    ranked, rank = g.tight_rank
    if key != ranked:
        rank = linalg.integer_rank([edges[i] for i in min_indices])
        g.tight_rank = (key, rank)
    if rank != g.n:
        raise NotAFacet(f"minimizer set has affine dimension != {g.n - 1}")
    if minimum != -1:
        raise InternalInconsistency(
            f"facet normal {coeffs} attains minimum {minimum}, not -1"
        )
    return Facet(coeffs, tuple(min_indices))


def _orientation_walk(tree: Sequence[Edge]) -> Iterator[tuple[int, list[int]]]:
    """All 2^n orientations of a spanning tree, with their potentials.

    tree holds n edges (i, j), i < j, on vertices 1..n+1 that form a
    spanning tree.  Yields (mask, pot) once per orientation: bit k of mask
    is set iff edge k is oriented (j, i), and pot[v] is the potential of
    vertex v with pot[1] = 0 and pot[t] - pot[h] = -1 on every oriented
    edge (pot[0] pads the labels).  One `linalg.solve_neg_ones` call gives
    the potentials of mask 0; the masks then follow the reflected Gray
    code, one edge flipped per step.  Flipping an edge negates the
    potential difference across it, so the vertices it cuts off from
    vertex 1 all move by -2 * (pot[child] - pot[parent]).  pot is one list
    updated in place: copy it to keep a visit.
    """
    n = len(tree)
    pot = [0, 0, *linalg.solve_neg_ones(tree)]
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n + 2)]
    for k, (u, v) in enumerate(tree):
        adjacency[u].append((v, k))
        adjacency[v].append((u, k))
    # breadth-first from vertex 1, so a vertex's subtree follows it in order
    order = [1]
    up: dict[int, tuple[int, int]] = {1: (0, -1)}  # vertex -> (parent, edge)
    for u in order:
        for w, k in adjacency[u]:
            if w not in up:
                up[w] = (u, k)
                order.append(w)
    below = {v: [v] for v in order}
    flips: dict[int, tuple[int, int, tuple[int, ...]]] = {}  # edge -> its flip
    for v in reversed(order[1:]):
        parent, k = up[v]
        flips[k] = (v, parent, tuple(below[v]))
        below[parent] += below[v]
    mask = 0
    yield mask, pot
    for step in range(1, 1 << n):
        k = (step & -step).bit_length() - 1
        mask ^= 1 << k
        child, parent, cut_off = flips[k]
        delta = 2 * (pot[parent] - pot[child])
        for v in cut_off:
            pot[v] += delta
        yield mask, pot


def brute_force_facets(g: Graph) -> list[Facet]:
    """Independent facet oracle: exhaustive hyperplane search.

    For every n-subset of points that spans a hyperplane avoiding the
    origin, takes the exact solution a of <x, a> = -1 and accepts the
    hyperplane iff the whole configuration lies on the far side.  Such a
    subset orients a spanning tree's edges, and a, read as potentials
    (the point of (t, h) takes a_t - a_h), puts each tree edge at -1 one
    way and +1 the other; so only the m - n chords, the edges not in the
    tree, are tested: |a_u - a_v| <= 1 on each.  Each spanning tree is
    solved once by `linalg.solve_neg_ones`, and `_orientation_walk` walks
    its 2^n orientations in Gray-code order.  The tree edge at vertex 1
    makes a primitive.  Normals come sorted; one that verify_facet rejects
    is an oracle fault and raises InternalInconsistency.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX_DIM or 2 * g.m > BRUTE_FORCE_MAX_POINTS:
        raise TooLarge(
            f"oracle guard: dim {n} (bound {BRUTE_FORCE_MAX_DIM}), "
            f"{2 * g.m} points (bound {BRUTE_FORCE_MAX_POINTS}); "
            f"the search would need C({g.m}, {n}) edge sets "
            f"and 2^{n} orientations for each spanning tree"
        )
    found: set[tuple[int, ...]] = set()
    for tree in itertools.combinations(g.edges, n):
        # a sign flip keeps the rank, so a dependent edge set is singular
        # in all 2^n orientations
        if linalg.integer_rank(tree) < n:
            continue
        chords = [e for e in g.edges if e not in tree]
        for _, pot in _orientation_walk(tree):
            for u, v in chords:
                if abs(pot[u] - pot[v]) > 1:
                    break
            else:
                found.add(tuple(pot[2:]))
    facets = []
    for key in sorted(found):
        try:
            facets.append(verify_facet(g, key))
        except NotAFacet as exc:
            raise InternalInconsistency(f"oracle accepted normal {key}: {exc}") from None
    return facets
