"""Facet enumeration through maximal bipartite subgraphs and sign vectors.

Every facet subgraph of the configuration is a maximal bipartite subgraph
B of G, and the facets sharing B biject with the sign vectors
d in {-1,+1}^n that satisfy the fundamental-cycle constraints of a
spanning tree of B: value in {-1,+1} on cycles closed by edges of B,
value 0 on cycles closed by the remaining edges of G.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterable

from .errors import EmptySubset, InternalInconsistency, TooLarge, ValidationError
from .geometry import (
    Facet,
    Point,
    PointConfiguration,
    configuration_from_graph,
    decode_point,
    verify_facet,
)
from .graphs import (
    CycleVector,
    DirectedEdge,
    Edge,
    Graph,
    MaxBipartiteSubgraph,
    SpanningTree,
    enumerate_maximal_bipartite_subgraphs,
    fundamental_cycle,
    has_even_cycle,
    spanning_tree,
)

SignVector = tuple[int, ...]

SIGN_SEARCH_MAX_DIM = 30


@dataclasses.dataclass(frozen=True)
class CycleConstraintSystem:
    """Fundamental-cycle constraints for one maximal bipartite subgraph."""

    tree: SpanningTree
    rows_pm: tuple[CycleVector, ...]
    rows_zero: tuple[CycleVector, ...]


@dataclasses.dataclass(frozen=True)
class FaceProperties:
    dim: int
    corank: int
    independent: bool
    circuit: bool
    component_count: int


@dataclasses.dataclass(frozen=True)
class FacetClass:
    """All facets sharing one facet subgraph, in sign-vector order."""

    subgraph_index: int
    subgraph: MaxBipartiteSubgraph
    corank: int
    facets: tuple[Facet, ...]


def build_cycle_system(g: Graph, b: MaxBipartiteSubgraph) -> CycleConstraintSystem:
    """One +-1 row per non-tree edge of b, one zero row per edge outside b."""
    tree = spanning_tree(b)
    tree_edges = set(tree.edges)
    b_edges = set(b.edges)
    rows_pm = tuple(
        fundamental_cycle(tree, e) for e in b.edges if e not in tree_edges
    )
    rows_zero = tuple(
        fundamental_cycle(tree, e) for e in g.edges if e not in b_edges
    )
    return CycleConstraintSystem(tree=tree, rows_pm=rows_pm, rows_zero=rows_zero)


def enumerate_sign_vectors(sys: CycleConstraintSystem) -> list[SignVector]:
    """All d in {-1,+1}^n solving the system, in binary order (-1 before +1).

    Depth-first assignment over tree-edge positions with interval pruning:
    a partial row sum further from its target set than the remaining
    unassigned mass of that row can never recover, and a +-1 row that
    closes at 0 is cut.  So every leaf solves every row exactly.
    """
    n = len(sys.tree.edges)
    if n > SIGN_SEARCH_MAX_DIM:
        raise TooLarge(
            f"sign search guard: n = {n} > {SIGN_SEARCH_MAX_DIM} tree edges; "
            f"the search would try up to 2^{n} sign vectors"
        )
    rows = [(row.coeffs, False) for row in sys.rows_zero] + [
        (row.coeffs, True) for row in sys.rows_pm
    ]
    by_position: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    remaining = [0] * len(rows)
    for r, (coeffs, _) in enumerate(rows):
        for k, c in enumerate(coeffs):
            if c:
                by_position[k].append((r, c))
                remaining[r] += 1
    partial = [0] * len(rows)
    targets_pm = [is_pm for _, is_pm in rows]
    solutions: list[SignVector] = []
    d = [0] * n

    def feasible(r: int) -> bool:
        s, left = partial[r], remaining[r]
        if targets_pm[r]:
            return s - left <= 1 and s + left >= -1 and (left > 0 or s != 0)
        return abs(s) <= left

    if not all(map(feasible, range(len(rows)))):
        return []  # a +-1 row with empty support, which no position checks

    def extend(k: int) -> None:
        if k == n:
            solutions.append(tuple(d))
            return
        for value in (-1, 1):
            d[k] = value
            ok = True
            for r, c in by_position[k]:
                partial[r] += c * value
                remaining[r] -= 1
            for r, _ in by_position[k]:
                if not feasible(r):
                    ok = False
                    break
            if ok:
                extend(k + 1)
            for r, c in by_position[k]:
                partial[r] -= c * value
                remaining[r] += 1
        d[k] = 0

    extend(0)
    return solutions


def _potentials(tree: SpanningTree, d: SignVector) -> list[int]:
    """Vertex potentials with vertex 1 anchored at 0.

    Each signed tree point d_k x_k must take value -1, i.e.
    a_tail - a_head = -d_k along the oriented tree edge k; BFS discovery
    order guarantees one endpoint is already assigned.
    """
    count = tree.subgraph.vertex_count
    pot = [None] * (count + 1)
    pot[1] = 0
    for k, (tail, head) in enumerate(tree.oriented):
        if pot[tail] is not None:
            pot[head] = pot[tail] + d[k]
        else:
            pot[tail] = pot[head] - d[k]
    return pot  # type: ignore[return-value]


def _facet_from_sign_vector(
    cfg: PointConfiguration,
    b: MaxBipartiteSubgraph,
    tree: SpanningTree,
    d: SignVector,
) -> Facet:
    pot = _potentials(tree, d)
    coeffs = tuple(pot[v] for v in range(2, cfg.graph.vertex_count + 1))
    facet = verify_facet(cfg, coeffs)
    if facet.subgraph_edges != b.edges:
        raise InternalInconsistency(
            "facet subgraph does not match the generating bipartite subgraph"
        )
    return facet


def enumerate_facet_classes(g: Graph) -> list[FacetClass]:
    """Facet classes grouped by maximal bipartite subgraph.

    Classes are ordered by the subgraph enumeration; facets inside a class
    follow sign-vector order.  Distinctness within a class and disjointness
    across classes hold by construction and are asserted.
    """
    cfg = configuration_from_graph(g)
    seen_normals: dict[tuple[int, ...], int] = {}
    classes = []
    for index, b in enumerate(enumerate_maximal_bipartite_subgraphs(g)):
        system = build_cycle_system(g, b)
        facets = []
        for d in enumerate_sign_vectors(system):
            facet = _facet_from_sign_vector(cfg, b, system.tree, d)
            key = facet.normal.coeffs
            if key in seen_normals:
                raise InternalInconsistency(
                    f"facet normal {key} produced by classes "
                    f"{seen_normals[key]} and {index}"
                )
            seen_normals[key] = index
            facets.append(facet)
        classes.append(
            FacetClass(
                subgraph_index=index,
                subgraph=b,
                corank=b.cyclomatic_number(),
                facets=tuple(facets),
            )
        )
    return classes


def enumerate_all_facets(g: Graph) -> list[Facet]:
    """Every facet of the configuration, grouped by facet subgraph."""
    return [f for cls in enumerate_facet_classes(g) for f in cls.facets]


def face_properties(
    g: Graph, facet_or_point_subset: Facet | Iterable[Point]
) -> FaceProperties:
    """Geometric properties of a subset of a facet, read off its subgraph.

    For a subgraph touching |V| vertices in k components, dim is
    |V| - k - 1 (the rank of its edge vectors, minus one), corank is
    |points| - dim - 1, independence means the subgraph is a forest, and
    circuit means it is exactly one chordless cycle.  A repeated point, or
    points that lie on no common face (such as a point and its negative),
    raise ValidationError.
    """
    if isinstance(facet_or_point_subset, Facet):
        directed = list(facet_or_point_subset.directed_edges)
    else:
        points = list(facet_or_point_subset)
        directed = [decode_point(p) for p in points]
    if not directed:
        raise EmptySubset("point subset is empty")

    edges: dict[Edge, DirectedEdge] = {}
    for i, j in directed:
        e = (i, j) if i < j else (j, i)
        if e not in g.edge_index:
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
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    component_count = 0
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        component_count += 1
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    dim = len(adj) - component_count - 1
    corank = len(directed) - dim - 1
    independent = len(edges) == len(adj) - component_count
    circuit = (
        component_count == 1
        and len(edges) == len(adj)
        and all(len(ws) == 2 for ws in adj.values())
    )
    return FaceProperties(
        dim=dim,
        corank=corank,
        independent=independent,
        circuit=circuit,
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


def balancing_check(g: Graph, facet: Facet) -> bool:
    """Every cycle of g meets the directed facet subgraph half and half.

    A directed facet edge (t, h) weighs +1 when walked from t to h and -1
    when walked back; other edges weigh 0.  A cycle is balanced iff its
    weights sum to 0.  That sum is linear on the cycle space, which the
    fundamental cycles of any spanning tree span, so every cycle balances
    iff the weights are differences of vertex potentials.  One BFS from
    vertex 1 carries the potentials along its tree and checks every other
    edge: O(N + m) at any N.
    """
    directed = set(facet.directed_edges)
    potential = {1: 0}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            expected = potential[u] + ((u, v) in directed) - ((v, u) in directed)
            if v not in potential:
                potential[v] = expected
                queue.append(v)
            elif potential[v] != expected:
                return False
    return True


def is_simplicial(g: Graph) -> bool:
    """All facets are simplices iff the graph has no even cycle."""
    return not has_even_cycle(g)
