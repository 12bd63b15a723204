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

from itertools import chain
from typing import NamedTuple

from .errors import InternalInconsistency, TooLarge
from .geometry import Facet, verify_facet
from .graphs import Graph, MaxBipartiteSubgraph, enumerate_maximal_bipartite_subgraphs

SIGN_SEARCH_MAX_DIM = 30
# above every facet count in the tests and the benchmark (J(4,5): 123,480)
ENUMERATION_MAX_FACETS = 1 << 18


class FacetClass(NamedTuple):
    """A named tuple of the facets sharing one subgraph, in sign-vector order.

    The class data is held here once, not per facet: each facet's tight
    points orient the edges g.edges[k] for the set bits k of subgraph.cut
    once each, in graph order, point index i orienting g.edges[i >> 1];
    its corank is subgraph.corank; and the even potentials of its normal,
    vertex 1 at 0, are the set bits of subgraph.plus_mask.
    """

    subgraph: MaxBipartiteSubgraph
    facets: tuple[Facet, ...]


def build_cycle_system(g: Graph, b: MaxBipartiteSubgraph) -> tuple[tuple, ...]:
    """The steps of b's BFS tree from vertex 1, ascending neighbours first.

    Each step is a plain tuple (vertex, parent, sign, checks) for one
    vertex of the tree: f(vertex) = f(parent) + sign * d_k.  sign is +1
    when vertex is on b's plus side (bit vertex of b.plus_mask set) and -1
    on its minus side, so the tree edge oriented from minus to plus is
    (parent, vertex) when sign is +1 and (vertex, parent) otherwise;
    d_k = +1 puts it among the facet's directed edges and d_k = -1 puts its
    reverse there.  checks holds (u, gap) for every other edge of g from
    vertex to an earlier vertex u: |f(vertex) - f(u)| must be gap, 1 on
    edges of b and 0 on the other edges of g.  The edges of b are the edges
    of g whose ends differ in plus_mask, so the BFS follows them, and an
    edge to an earlier vertex needs a gap of 1 exactly when it crosses.
    """
    plus = b.plus_mask
    parent = {1: 0}
    order = [1]
    for v in order:
        for w in g.adjacency[v]:
            if w not in parent and plus >> w & 1 != plus >> v & 1:
                parent[w] = v
                order.append(w)
    position = {v: k for k, v in enumerate(order)}
    steps = []
    for w in order[1:]:
        p = parent[w]
        on_plus = plus >> w & 1
        checks = tuple(
            (u, plus >> u & 1 ^ on_plus)
            for u in g.adjacency[w]
            if u != p and position[u] < position[w]
        )
        steps.append((w, p, 1 if on_plus else -1, checks))
    return tuple(steps)


def enumerate_sign_vectors(steps: tuple[tuple, ...]) -> list[tuple[int, ...]]:
    """The normal of every d in {-1,+1}^n meeting every check, in binary
    order of d (-1 before +1).

    Depth-first over the steps: d_k fixes the potential of step k's
    vertex, and its checks against earlier vertices are tested at once.
    So a branch is cut at the first edge it violates, and every leaf is a
    solution, returned as its potentials of vertices 2..n+1: the facet
    normal of that sign vector.
    More than ENUMERATION_MAX_FACETS solutions raise TooLarge.
    """
    n = len(steps)
    if n > SIGN_SEARCH_MAX_DIM:
        raise TooLarge(
            f"sign search guard: n = {n} > {SIGN_SEARCH_MAX_DIM} tree edges; "
            f"the search would try up to 2^{n} sign vectors"
        )
    pot = [0] * (n + 2)  # vertices 1..n+1, vertex 1 at 0
    normals: list[tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == n:
            normals.append(tuple(pot[2:]))
            if len(normals) > ENUMERATION_MAX_FACETS:
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
                extend(k + 1)

    extend(0)
    return normals


def enumerate_facet_classes(g: Graph) -> list[FacetClass]:
    """Facet classes grouped by maximal bipartite subgraph.

    Classes are ordered by the subgraph enumeration; facets inside a class
    follow sign-vector order.  A class that takes the total past
    ENUMERATION_MAX_FACETS raises TooLarge before its facets are built.
    Two facts hold by construction and are asserted once per class: each
    facet's cut.bit_count() tight points lie among the points 2k, 2k + 1
    of the class's edges k (exact, as a point and its reverse are never
    both at the certified minimum -1); and the normals verify_facet
    returns are distinct within and across classes.
    """
    seen_normals: set[tuple[int, ...]] = set()
    classes: list[FacetClass] = []
    total = 0
    for index, b in enumerate(enumerate_maximal_bipartite_subgraphs(g)):
        normals = enumerate_sign_vectors(build_cycle_system(g, b))
        total += len(normals)
        if total > ENUMERATION_MAX_FACETS:
            raise TooLarge(
                f"facet guard: more than {ENUMERATION_MAX_FACETS} facets for "
                f"n = {g.n}, m = {g.m}; the enumeration would build up to "
                f"2^{g.n} in each of up to 2^{g.n} - 1 classes"
            )
        facets = tuple([verify_facet(g, normal) for normal in normals])
        on_b = {i for i in range(2 * g.m) if b.cut >> (i >> 1) & 1}
        tight = [f.point_indices for f in facets]
        sizes = set(map(len, tight))
        if sizes - {b.cut.bit_count()} or not on_b.issuperset(chain(*tight)):
            raise InternalInconsistency(
                "facet subgraph does not match the generating bipartite subgraph"
            )
        seen_normals.update([f.normal for f in facets])
        if len(seen_normals) != total:  # name the first normal met before
            first = {f.normal: k for k, c in enumerate(classes) for f in c.facets}
            for f in facets:
                if f.normal in first:
                    raise InternalInconsistency(
                        f"facet normal {f.normal} produced by classes "
                        f"{first[f.normal]} and {index}"
                    )
                first[f.normal] = index
        classes.append(FacetClass(b, facets))
    return classes


def enumerate_all_facets(g: Graph) -> list[Facet]:
    """Every facet of the configuration, grouped by facet subgraph."""
    return [f for cls in enumerate_facet_classes(g) for f in cls.facets]

