"""Exact point configurations of signed edge vectors and their facets.

The configuration of a graph G on vertices 1..N is the set of vectors
+-(e_{i-1} - e_{j-1}) in R^(N-1), one pair per edge {i,j}, with e_0 = 0
(vertex 1's axis is projected out).  Inside the package a point travels
as the directed edge it encodes, and `edge_point` encodes one for output.
All facet decisions are made in exact integer arithmetic; no floating
point is used anywhere.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

from . import linalg
from .errors import InternalInconsistency, NotAFacet, TooLarge, ZeroNormal, show
from .graphs import DirectedEdge, Edge, Graph

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


class PointConfiguration:
    """The 2m signed edge vectors of a graph, in deterministic order.

    For each edge {i, j} (i < j) in graph order the directed edge (i, j)
    comes first, then (j, i); index 2k+s therefore is edge k with
    orientation s.  The package computes on directed_edges; points, their
    encodings, are kept for output, and point_edges holds the undirected
    edge of each point; a Facet holds indices into these tables.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.dim = graph.n
        self.directed_edges: tuple[DirectedEdge, ...] = tuple(
            e for i, j in graph.edges for e in ((i, j), (j, i))
        )
        self.point_edges = tuple(e for e in graph.edges for _ in range(2))
        self.points: tuple[Point, ...] = tuple(
            edge_point(self.dim, t, h) for t, h in self.directed_edges
        )


@dataclasses.dataclass(frozen=True)
class Facet:
    """A facet of the configuration: its normal and its tight points.

    normal is the primitive integer inner normal, read as the potentials
    of vertices 2..N with vertex 1 at 0.  It attains minimum -1 over the
    configuration with no rescaling: symmetric edge polytopes are
    reflexive (Matsui, Higashitani, Nagazawa, Ohsugi and Hibi, 2011), so
    every facet is {x : <x, a> = -1} for an integer a, and that a is
    primitive.  point_indices lists the tight points in configuration
    order; cfg.directed_edges at those indices are the edges they encode.
    """

    normal: tuple[int, ...]
    point_indices: tuple[int, ...]

    def points(self, cfg: PointConfiguration) -> tuple[Point, ...]:
        return tuple(cfg.points[i] for i in self.point_indices)


def verify_facet(cfg: PointConfiguration, normal: Sequence[int]) -> Facet:
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
    InternalInconsistency.
    """
    try:
        coeffs = tuple(normal)
    except TypeError:
        raise ValueError(f"normal {show(normal)} is not a sequence of ints") from None
    if not all([type(c) is int for c in coeffs]):
        raise ValueError(f"normal {show(coeffs)} has an entry that is not an integer")
    if len(coeffs) != cfg.dim:
        raise ValueError(f"normal has length {len(coeffs)}, expected {cfg.dim}")
    if not any(coeffs):
        raise ZeroNormal("inner normal must be nonzero")
    coeffs = linalg.primitive(coeffs)

    pot = (0, 0) + coeffs
    edges = cfg.directed_edges
    values = [pot[t] - pot[h] for t, h in edges]
    minimum = min(values)
    min_indices = [i for i, v in enumerate(values) if v == minimum]
    # a nonzero normal on a connected graph differs across some edge, and
    # both orientations of it are points, so the minimum is < 0: the tight
    # points lie on a hyperplane that misses the origin and their affine
    # dimension is their rank - 1
    if linalg.integer_rank([edges[i] for i in min_indices]) != cfg.dim:
        raise NotAFacet(f"minimizer set has affine dimension != {cfg.dim - 1}")
    if minimum != -1:
        raise InternalInconsistency(
            f"facet normal {coeffs} attains minimum {minimum}, not -1"
        )
    return Facet(normal=coeffs, point_indices=tuple(min_indices))


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


def brute_force_facets(cfg: PointConfiguration) -> list[Facet]:
    """Independent facet oracle: exhaustive hyperplane search.

    For every n-subset of points that spans a hyperplane avoiding the
    origin, takes the exact solution a of <x, a> = -1 and accepts the
    hyperplane iff the whole configuration lies on the far side.  Such a
    subset is one orientation of the edges of a spanning tree, and a is
    read as vertex potentials, as in verify_facet, so the point of (t, h)
    takes a_t - a_h.  Edge sets of rank < n are skipped; each spanning
    tree is solved once by `linalg.solve_neg_ones`, and `_orientation_walk`
    derives the potentials of all its 2^n orientations from that solution
    in Gray-code order.  The tree edge at vertex 1 gives a an entry +-1,
    so a is primitive.  Output is deduplicated by normal and sorted
    lexicographically by it.
    """
    n = cfg.dim
    if n > BRUTE_FORCE_MAX_DIM or len(cfg.points) > BRUTE_FORCE_MAX_POINTS:
        raise TooLarge(
            f"oracle guard: dim {n} (bound {BRUTE_FORCE_MAX_DIM}), "
            f"{len(cfg.points)} points (bound {BRUTE_FORCE_MAX_POINTS}); "
            f"the search would need C({cfg.graph.m}, {n}) edge sets "
            f"and 2^{n} orientations for each spanning tree"
        )
    found: set[tuple[int, ...]] = set()
    for tree in itertools.combinations(cfg.graph.edges, n):
        # a sign flip keeps the rank, so a dependent edge set is singular
        # in all 2^n orientations
        if linalg.integer_rank(tree) < n:
            continue
        for _, pot in _orientation_walk(tree):
            if all(pot[t] - pot[h] >= -1 for t, h in cfg.directed_edges):
                found.add(tuple(pot[2:]))
    return [verify_facet(cfg, key) for key in sorted(found)]
