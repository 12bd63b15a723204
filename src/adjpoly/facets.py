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

from .errors import InternalInconsistency, TooLarge
from .geometry import Facet, PointConfiguration, verify_facet
from .graphs import Graph, MaxBipartiteSubgraph, enumerate_maximal_bipartite_subgraphs

SIGN_SEARCH_MAX_DIM = 30
# above every facet count in the tests and the benchmark (J(4,5): 123,480)
ENUMERATION_MAX_FACETS = 1 << 18


@dataclasses.dataclass(frozen=True)
class FacetClass:
    """All facets sharing one facet subgraph, in sign-vector order.

    The class data is held here once, not per facet: each facet's tight
    points encode subgraph.edges, one orientation each and in graph order;
    its corank is subgraph.cyclomatic_number(); and the even potentials of
    its normal, vertex 1 at 0, are subgraph.plus.
    """

    subgraph: MaxBipartiteSubgraph
    facets: tuple[Facet, ...]


def build_cycle_system(g: Graph, b: MaxBipartiteSubgraph) -> tuple[tuple, ...]:
    """The steps of b's BFS tree from vertex 1, ascending neighbours first.

    Each step is a plain tuple (vertex, parent, sign, checks) for one
    vertex of the tree: f(vertex) = f(parent) + sign * d_k.  sign is +1
    when vertex is in b.plus and -1 when it is in b.minus, so the tree
    edge oriented from minus to plus is (parent, vertex) when sign is +1
    and (vertex, parent) otherwise; d_k = +1 puts it among the facet's
    directed edges and d_k = -1 puts its reverse there.  checks holds
    (u, gap) for every other edge of g from vertex to an earlier vertex u:
    |f(vertex) - f(u)| must be gap, 1 on edges of b and 0 on the other
    edges of g.  The edges of b are the edges of g between b.plus and
    b.minus, so the BFS follows them, and an edge to an earlier vertex
    needs a gap of 1 exactly when it crosses.
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
        steps.append((w, p, 1 if on_plus else -1, checks))
    return tuple(steps)


def enumerate_sign_vectors(steps: tuple[tuple, ...]) -> list[tuple[int, ...]]:
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
    solutions: list[tuple[int, ...]] = []

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


def enumerate_facet_classes(g: Graph) -> list[FacetClass]:
    """Facet classes grouped by maximal bipartite subgraph.

    Classes are ordered by the subgraph enumeration; facets inside a class
    follow sign-vector order.  Distinctness within a class and disjointness
    across classes hold by construction and are asserted.  A class that
    takes the total past ENUMERATION_MAX_FACETS raises TooLarge before its
    facets are built.
    """
    cfg = PointConfiguration(g)
    # every step sets its vertex, so one potential list serves every facet
    pot = [0] * (g.vertex_count + 1)
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
            for (vertex, parent, sign, _), dk in zip(steps, d):
                pot[vertex] = pot[parent] + sign * dk
            facet = verify_facet(cfg, pot[2:])
            if tuple([cfg.point_edges[i] for i in facet.point_indices]) != b.edges:
                raise InternalInconsistency(
                    "facet subgraph does not match the generating bipartite subgraph"
                )
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

