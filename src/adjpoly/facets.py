"""Facet enumeration through maximal bipartite subgraphs and sign vectors.

Every facet subgraph of the configuration is a maximal bipartite subgraph
B of G, and the facets sharing B biject with the sign vectors
d in {-1,+1}^n on the edges of a spanning tree of B that satisfy its
fundamental-cycle constraints: value in {-1,+1} on cycles closed by edges
of B, value 0 on cycles closed by the remaining edges of G.  The search
works in vertex potentials instead.  Vertex 1 sits at 0 and tree edge k
sets its newer end's potential from the older end's by +-d_k.  A cycle's
value is then, up to sign, the potential difference across the edge that
closes it, so the constraints ask for a difference of exactly 1 across
every other edge of B and of 0 across every edge of G outside B.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from . import linalg
from .errors import EmptySubset, InternalInconsistency, TooLarge, ValidationError
from .geometry import (
    Facet,
    Point,
    PointConfiguration,
    edge_ends,
    verify_facet,
)
from .graphs import (
    DirectedEdge,
    Edge,
    Graph,
    MaxBipartiteSubgraph,
    enumerate_maximal_bipartite_subgraphs,
)

SignVector = tuple[int, ...]

SIGN_SEARCH_MAX_DIM = 30
# above every facet count in the tests and the benchmark (J(4,5): 123,480)
ENUMERATION_MAX_FACETS = 1 << 18


class PotentialStep(NamedTuple):
    """One vertex of b's BFS tree: f(vertex) = f(parent) + sign * d_k.

    sign is +1 when vertex is in b.plus and -1 when it is in b.minus, so
    the tree edge oriented from minus to plus is (parent, vertex) when
    sign is +1 and (vertex, parent) otherwise; d_k = +1 puts it among the
    facet's directed edges and d_k = -1 puts its reverse there.  checks
    holds (u, gap) for every other edge of g from vertex to an earlier
    vertex u: |f(vertex) - f(u)| must be gap, 1 on edges of b and 0 on
    the other edges of g.
    """

    vertex: int
    parent: int
    sign: int
    checks: tuple[tuple[int, int], ...]


@dataclasses.dataclass(frozen=True)
class FaceProperties:
    dim: int
    corank: int
    independent: bool
    circuit: bool
    component_count: int


@dataclasses.dataclass(frozen=True)
class FacetClass:
    """All facets sharing one facet subgraph, in sign-vector order.

    The class data is held here once, not per facet: each facet's tight
    points encode subgraph.edges, one orientation each; its corank is
    subgraph.cyclomatic_number(); and the even potentials of its normal,
    vertex 1 at 0, are subgraph.plus.
    """

    subgraph: MaxBipartiteSubgraph
    facets: tuple[Facet, ...]


def build_cycle_system(g: Graph, b: MaxBipartiteSubgraph) -> tuple[PotentialStep, ...]:
    """The steps of b's BFS tree from vertex 1, ascending neighbours first.

    The edges of b are the edges of g between b.plus and b.minus, so the
    BFS follows them, and an edge to an earlier vertex needs a potential
    gap of 1 exactly when it crosses.
    """
    plus = b.plus
    parent = {1: 0}
    order = [1]
    for v in order:
        for w in g.adjacency[v]:
            if w not in parent and (v in plus) != (w in plus):
                parent[w] = v
                order.append(w)
    position = {v: k for k, v in enumerate(order)}
    steps = []
    for w in order[1:]:
        p = parent[w]
        on_plus = w in plus
        checks = tuple(
            (u, int((u in plus) != on_plus))
            for u in g.adjacency[w]
            if u != p and position[u] < position[w]
        )
        steps.append(PotentialStep(w, p, 1 if on_plus else -1, checks))
    return tuple(steps)


def enumerate_sign_vectors(steps: tuple[PotentialStep, ...]) -> list[SignVector]:
    """All d in {-1,+1}^n meeting every check, in binary order (-1 before +1).

    Depth-first over the steps: d_k fixes the potential of step k's
    vertex, and its checks against earlier vertices are tested at once.
    So a branch is cut at the first edge it violates, and every leaf is a
    solution.
    More than ENUMERATION_MAX_FACETS solutions raise TooLarge.
    """
    n = len(steps)
    if n > SIGN_SEARCH_MAX_DIM:
        raise TooLarge(
            f"sign search guard: n = {n} > {SIGN_SEARCH_MAX_DIM} tree edges; "
            f"the search would try up to 2^{n} sign vectors"
        )
    pot = [0] * (n + 2)  # vertices 1..n+1, vertex 1 at 0
    d = [0] * n
    solutions: list[SignVector] = []

    def extend(k: int) -> None:
        if k == n:
            solutions.append(tuple(d))
            if len(solutions) > ENUMERATION_MAX_FACETS:
                raise TooLarge(
                    f"facet guard: more than {ENUMERATION_MAX_FACETS} sign vectors "
                    f"for n = {n} tree edges; the search would keep up to 2^{n} of them"
                )
            return
        vertex, parent, sign, checks = steps[k]
        for value in (-1, 1):
            f = pot[parent] + sign * value
            for u, gap in checks:
                if abs(f - pot[u]) != gap:
                    break
            else:
                pot[vertex] = f
                d[k] = value
                extend(k + 1)

    extend(0)
    return solutions


def _facet_from_sign_vector(
    cfg: PointConfiguration,
    b: MaxBipartiteSubgraph,
    steps: tuple[PotentialStep, ...],
    d: SignVector,
) -> Facet:
    pot = [0] * (cfg.graph.vertex_count + 1)
    for (vertex, parent, sign, _), dk in zip(steps, d):
        pot[vertex] = pot[parent] + sign * dk
    facet = verify_facet(cfg, pot[2:])
    if tuple([cfg.point_edges[i] for i in facet.point_indices]) != b.edges:
        raise InternalInconsistency(
            "facet subgraph does not match the generating bipartite subgraph"
        )
    return facet


def enumerate_facet_classes(g: Graph) -> list[FacetClass]:
    """Facet classes grouped by maximal bipartite subgraph.

    Classes are ordered by the subgraph enumeration; facets inside a class
    follow sign-vector order.  Distinctness within a class and disjointness
    across classes hold by construction and are asserted.  A class that
    takes the total past ENUMERATION_MAX_FACETS raises TooLarge before its
    facets are built.
    """
    cfg = PointConfiguration(g)
    seen_normals: dict[tuple[int, ...], int] = {}
    classes = []
    total = 0
    for index, b in enumerate(enumerate_maximal_bipartite_subgraphs(g)):
        steps = build_cycle_system(g, b)
        sign_vectors = enumerate_sign_vectors(steps)
        total += len(sign_vectors)
        if total > ENUMERATION_MAX_FACETS:
            raise TooLarge(
                f"facet guard: more than {ENUMERATION_MAX_FACETS} facets for "
                f"n = {g.n}, m = {g.m}; the enumeration would build up to "
                f"2^{g.n} in each of up to 2^{g.n} - 1 classes"
            )
        facets = []
        for d in sign_vectors:
            facet = _facet_from_sign_vector(cfg, b, steps, d)
            if facet.normal in seen_normals:
                raise InternalInconsistency(
                    f"facet normal {facet.normal} produced by classes "
                    f"{seen_normals[facet.normal]} and {index}"
                )
            seen_normals[facet.normal] = index
            facets.append(facet)
        classes.append(FacetClass(subgraph=b, facets=tuple(facets)))
    return classes


def enumerate_all_facets(g: Graph) -> list[Facet]:
    """Every facet of the configuration, grouped by facet subgraph."""
    return [f for cls in enumerate_facet_classes(g) for f in cls.facets]


def face_properties(
    g: Graph, facet_or_point_subset: Facet | Iterable[Point]
) -> FaceProperties:
    """Geometric properties of a subset of a facet, read off its subgraph.

    Each point is read as the directed edge `geometry.edge_ends` decodes.
    The points' rank is the rank of their edges, which
    `linalg.integer_rank` counts as |V touched| - k for a subgraph in k
    components.  Then dim is rank - 1, corank is |points| - rank,
    independence means the subgraph is a forest (|edges| = rank), and
    circuit means it is one component with every degree 2, a chordless
    cycle.  A subset that is not iterable, a point that is not a sequence,
    has the wrong length or is not a signed edge vector, a repeated point,
    or points that lie on no common face (such as a point and its
    negative) raise ValidationError.
    """
    if isinstance(facet_or_point_subset, Facet):
        directed = list(facet_or_point_subset.directed_edges)
    else:
        if not isinstance(facet_or_point_subset, Iterable):
            raise ValidationError(f"points {facet_or_point_subset!r} are not iterable")
        directed = []
        for p in facet_or_point_subset:
            if not isinstance(p, Sequence):
                raise ValidationError(f"point {p!r} is not a sequence")
            if len(p) != g.n:
                raise ValidationError(f"point {p} has length {len(p)}, expected {g.n}")
            try:
                t, h = edge_ends(p)
            except (TypeError, ValueError):
                t = h = 1
            if t == h:
                raise ValidationError(f"{p} is not a signed edge vector")
            directed.append((t, h))
    if not directed:
        raise EmptySubset("point subset is empty")

    edges: dict[Edge, DirectedEdge] = {}
    for i, j in directed:
        e = (i, j) if i < j else (j, i)
        if j not in g.adjacency.get(i, ()):
            raise ValidationError(f"point encodes edge {e} not in the graph")
        if e in edges:
            if edges[e] == (i, j):
                raise ValidationError(f"repeated point of edge {(i, j)}")
            raise ValidationError(f"points of both orientations of edge {e}")
        edges[e] = (i, j)
    if not isinstance(facet_or_point_subset, Facet) and not _on_common_face(
        g, directed
    ):
        raise ValidationError("the points lie on no common face")
    rank = linalg.integer_rank(edges)
    degree = Counter(v for e in edges for v in e)
    component_count = len(degree) - rank
    return FaceProperties(
        dim=rank - 1,
        corank=len(directed) - rank,
        independent=len(edges) == rank,
        circuit=component_count == 1 and all(d == 2 for d in degree.values()),
        component_count=component_count,
    )


def _on_common_face(g: Graph, directed: list[DirectedEdge]) -> bool:
    """Whether the points of the directed edges lie on one proper face.

    They do iff some potentials f satisfy f(h) - f(t) = 1 on every given
    (t, h) and |f(u) - f(v)| <= 1 on every edge, since every face lies on
    a hyperplane <x, a> = -1 supporting the polytope.  These difference
    constraints are feasible iff their graph has no negative cycle, which
    Bellman-Ford decides in O(N m) integer steps.
    """
    # arc (u, v, w) encodes f(v) - f(u) <= w
    arcs = [(u, v, 1) for u, v in g.edges] + [(v, u, 1) for u, v in g.edges]
    arcs += [(h, t, -1) for t, h in directed]
    dist = [0] * (g.vertex_count + 1)
    for _ in range(g.vertex_count):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return True
    return False
