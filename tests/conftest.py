"""Shared fixtures: small-graph corpora and independent test oracles."""

import functools
import itertools
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

from adjpoly import Graph, ValidationError, parse_edge_list
from adjpoly.geometry import PointConfiguration, verify_facet
from adjpoly.graphs import MaxBipartiteSubgraph
from adjpoly.linalg import primitive, solve_neg_ones

DATA = Path(__file__).parent / "data"


def all_connected_graphs(n: int):
    """Every connected simple graph on labeled vertices 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = []
    for r in range(n - 1, len(pairs) + 1):
        for subset in itertools.combinations(pairs, r):
            try:
                out.append(Graph(n, subset))
            except ValidationError:
                continue
    return out


def n6_sample_graphs() -> dict[str, Graph]:
    """Fixed six-vertex sample: trees, bipartite, odd/even mixes, dense."""
    return {
        "cycle6": Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]),
        "cycle6_chord": Graph(
            6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)]
        ),
        "k33": Graph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]),
        "prism": Graph(
            6,
            [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)],
        ),
        "wheel": Graph(
            6,
            [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)],
        ),
        "k6": Graph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]),
        "path6": Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
        "star6": Graph(6, [(1, v) for v in range(2, 7)]),
        "c5_pendant": Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)]),
        "theta": Graph(6, [(1, 2), (2, 6), (1, 3), (3, 4), (4, 6), (1, 5), (5, 6)]),
    }


@functools.lru_cache(maxsize=None)
def exhaustive_corpus(max_n: int = 5) -> tuple[Graph, ...]:
    graphs = []
    for n in range(2, max_n + 1):
        graphs.extend(all_connected_graphs(n))
    return tuple(graphs)


def path_graph(n: int) -> Graph:
    """The path 1 - 2 - ... - n."""
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(length: int) -> Graph:
    """The cycle 1 - 2 - ... - length - 1."""
    return Graph(length, [(i, i + 1) for i in range(1, length)] + [(1, length)])


def joined_cycles_graph(m1: int, m2: int) -> Graph:
    """A 2*m1-cycle and a (2*m2+1)-cycle sharing the edge {1, 2}.

    The even cycle runs 1-2-3-...-(2*m1)-1 and the odd cycle closes
    2-(2*m1+1)-...-(2*m1+2*m2-1)-1.
    """
    even_n = 2 * m1
    edges = [(i, i + 1) for i in range(1, even_n)] + [(1, even_n)]
    chain = [2] + list(range(even_n + 1, even_n + 2 * m2)) + [1]
    edges += list(zip(chain, chain[1:]))
    return Graph(even_n + 2 * m2 - 1, edges)


def facets_by_corank(census) -> dict[int, int]:
    """Facet totals per corank of a facet_census result."""
    out: dict[int, int] = {}
    for corank, size in census:
        out[corank] = out.get(corank, 0) + size
    return out


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(1, n + 1), 2))


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertices numbered row by row from 1."""
    edges = []
    for v in range(1, rows * cols + 1):
        if v % cols:
            edges.append((v, v + 1))
        if v + cols <= rows * cols:
            edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def random_connected_graph(n: int, density: float, rng: random.Random) -> Graph:
    """A random spanning tree on shuffled labels plus each other pair with
    probability density."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = {
        tuple(sorted((labels[k], labels[rng.randrange(k)]))) for k in range(1, n)
    }
    edges |= {
        pair
        for pair in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < density
    }
    return Graph(n, edges)


def is_bipartite_edges(edges) -> bool:
    """2-colorability of an edge set, one component at a time."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color: dict[int, int] = {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in color:
                    color[w] = 1 - color[x]
                    stack.append(w)
                elif color[w] == color[x]:
                    return False
    return True


def brute_force_max_bipartite(g: Graph) -> set[frozenset]:
    """Oracle: filter all edge subsets for bipartite, keep inclusion-maximal."""
    bipartite = []
    for r in range(1, g.m + 1):
        for subset in itertools.combinations(g.edges, r):
            if is_bipartite_edges(subset):
                bipartite.append(frozenset(subset))
    return {s for s in bipartite if not any(s < t for t in bipartite)}


def scan_maximal_bipartite_subgraphs(g: Graph) -> list[MaxBipartiteSubgraph]:
    """Oracle: scan all 2^(N-1) bipartitions, keep connected spanning cuts.

    Vertex 1 stays on the plus side; bit k of the mask puts vertex k+2 on
    the plus side, and results come in mask order.
    """
    n_vert = g.vertex_count
    results = []
    for mask in range((1 << (n_vert - 1)) - 1):
        # a mask of all ones would leave the minus side empty
        plus = {1} | {k + 2 for k in range(n_vert - 1) if mask >> k & 1}
        crossing = tuple(
            e for e in g.edges if (e[0] in plus) != (e[1] in plus)
        )
        if not crossing:
            continue
        if not connected_spanning(crossing, n_vert):
            continue
        minus = frozenset(g.vertices()) - plus
        results.append(MaxBipartiteSubgraph(frozenset(plus), minus, crossing))
    return results


def connected_spanning(edges, vertex_count: int) -> bool:
    """Oracle: the edges touch all vertex_count vertices and connect them."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if len(adj) != vertex_count:
        return False
    start = next(iter(adj))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == vertex_count


def spanning_tree_count(g: Graph) -> int:
    """Oracle: the number of (N-1)-edge subsets that connect all vertices."""
    return sum(
        connected_spanning(edges, g.vertex_count)
        for edges in itertools.combinations(g.edges, g.n)
    )


def unpruned_brute_force_facets(cfg: PointConfiguration):
    """Reference: the hyperplane oracle's loop with no rank skip, solving
    all 2^n orientations of every n-edge subset."""
    n = cfg.dim
    found = set()
    for edge_combo in itertools.combinations(range(cfg.graph.m), n):
        for signs in itertools.product((0, 1), repeat=n):
            subset = [2 * e + s for e, s in zip(edge_combo, signs)]
            nums = solve_neg_ones([cfg.directed_edges[i] for i in subset])
            if nums is None:
                continue
            if all(
                sum(x * a for x, a in zip(point, nums)) >= -1
                for point in cfg.points
            ):
                found.add(primitive(nums))
    return [verify_facet(cfg, key) for key in sorted(found)]


def all_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Oracle: all simple cycles as vertex tuples, each listed once.

    A cycle is anchored at its smallest vertex and traversed toward its
    smaller neighbor first, which fixes one of the two directions.  The
    count grows exponentially with N.
    """
    cycles: list[tuple[int, ...]] = []

    def extend(path: list[int], on_path: set[int]) -> None:
        tip = path[-1]
        start = path[0]
        for w in g.adjacency[tip]:
            if w == start and len(path) >= 3 and path[1] < path[-1]:
                cycles.append(tuple(path))
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(path, on_path)
                on_path.remove(w)
                path.pop()

    for s in g.vertices():
        extend([s], {s})
    return cycles


def tight_edges(cfg: PointConfiguration, facet) -> tuple:
    """The directed edges of a facet's tight points, in configuration order."""
    return tuple(cfg.directed_edges[i] for i in facet.point_indices)


def balanced_on_all_cycles(cycles, directed_edges) -> bool:
    """Oracle: each of the cycles (vertex tuples, as from all_cycles) meets
    the directed edges half and half."""
    directed = set(directed_edges)
    for cycle in cycles:
        forward = backward = 0
        for idx, u in enumerate(cycle):
            v = cycle[(idx + 1) % len(cycle)]
            if (u, v) in directed:
                forward += 1
            elif (v, u) in directed:
                backward += 1
        if forward != backward:
            return False
    return True


def cyclomatic_number(edge_subset, g: Graph) -> int:
    """|E| - |V touched| + (components of the touched subgraph)."""
    edges = set()
    graph_edges = set(g.edges)
    for u, v in edge_subset:
        e = (u, v) if u < v else (v, u)
        if e not in graph_edges:
            raise ValidationError(f"edge {e} is not in the graph")
        edges.add(e)
    touched = {v for e in edges for v in e}
    return len(edges) - len(touched) + component_count(edges)


def component_count(edges) -> int:
    """Oracle: connected components of the subgraph the edges span, by BFS."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    components = 0
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return components


def fundamental_cycle_rows(g: Graph, b: MaxBipartiteSubgraph):
    """Oracle: the BFS tree of b from vertex 1 (ascending neighbours) and
    the fundamental cycle of every other edge of g.

    Returns the tree edges in discovery order, each oriented from b's
    minus side to its plus side, and a dict from each non-tree edge (a, c),
    a < c, to its row: entry k is +1 or -1 as the tree path from c back to
    a walks tree edge k along or against its orientation.
    """
    adj: dict[int, list[int]] = {}
    for u, v in b.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    oriented: list[tuple[int, int]] = []
    down = {1: [0] * g.n}  # signed tree path from vertex 1 to each vertex
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w in down:
                continue
            oriented.append((v, w) if v in b.minus else (w, v))
            down[w] = list(down[v])
            down[w][len(oriented) - 1] = 1 if oriented[-1] == (v, w) else -1
            queue.append(w)
    tree = {(min(e), max(e)) for e in oriented}
    rows = {
        (a, c): [x - y for x, y in zip(down[a], down[c])]
        for a, c in g.edges
        if (a, c) not in tree
    }
    return oriented, rows


def scan_sign_vectors(g: Graph, b: MaxBipartiteSubgraph) -> list[tuple[int, ...]]:
    """Oracle: every d in {-1,+1}^n in binary order (-1 before +1), kept if
    each fundamental-cycle row sums to +-1 on d for an edge of b and to 0
    for an edge outside b.  A row is summed over its nonzero entries only."""
    _, rows = fundamental_cycle_rows(g, b)
    b_edges = set(b.edges)
    wanted = [
        ([(k, c) for k, c in enumerate(row) if c], (-1, 1) if e in b_edges else (0,))
        for e, row in rows.items()
    ]
    return [
        d
        for d in itertools.product((-1, 1), repeat=g.n)
        if all(sum(c * d[k] for k, c in entries) in ok for entries, ok in wanted)
    ]


def two_color(edges, vertex_count: int) -> tuple[frozenset, frozenset]:
    """Oracle: 2-color a connected spanning edge set by BFS from vertex 1,
    which goes on the plus side; returns the sides (plus, minus)."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color = {1: 1}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w in adj.get(v, ()):
            if w not in color:
                color[w] = -color[v]
                queue.append(w)
            elif color[w] == color[v]:
                raise ValueError("edge set is not bipartite")
    if len(color) != vertex_count:
        raise ValueError("edge set is not spanning and connected")
    return (
        frozenset(v for v, c in color.items() if c == 1),
        frozenset(v for v, c in color.items() if c == -1),
    )


def _row_reduce(matrix: list[list[Fraction]], cols: int) -> int:
    """Gauss-Jordan elimination in place over the first cols columns;
    returns the rank.  Pivot rows end up first, each with a 1 in its pivot
    column and 0 elsewhere in that column."""
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        top[:] = [x / top[col] for x in top]
        for r, row in enumerate(matrix):
            if r != rank and row[col]:
                factor = row[col]
                row[:] = [x - factor * t for x, t in zip(row, top)]
        rank += 1
    return rank


def fraction_rank(rows) -> int:
    """Oracle: rank over the rationals by Fraction Gauss-Jordan elimination."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    return _row_reduce(matrix, len(matrix[0])) if matrix else 0


def fraction_solve_neg_ones(rows) -> tuple[Fraction, ...] | None:
    """Oracle: the solution a of X a = (-1, ..., -1) for square X, by Fraction
    Gauss-Jordan elimination, or None when X is singular."""
    n = len(rows)
    matrix = [[Fraction(x) for x in row] + [Fraction(-1)] for row in rows]
    if _row_reduce(matrix, n) < n:
        return None
    return tuple(row[n] for row in matrix)


def random_edges(rng: random.Random, count: int, n: int) -> list[tuple[int, int]]:
    """Directed edges (t, h) on vertices 1..n+1, whose points lie in R^n:
    loops (the zero vector), edges at vertex 1 (a lone +-1), other edges,
    and repeated or reversed earlier edges."""
    edges: list[tuple[int, int]] = []
    for _ in range(count):
        kind = rng.randrange(6)
        if edges and kind == 0:
            edges.append(rng.choice(edges))
        elif edges and kind == 1:
            edges.append(rng.choice(edges)[::-1])
        elif kind == 2:
            v = rng.randint(1, n + 1)
            edges.append((v, v))
        else:
            t, h = rng.sample(range(1, n + 2), 2)
            edges.append((t, h))
    return edges


@pytest.fixture(scope="session")
def joined45_path() -> Path:
    return DATA / "joined_4_5.txt"


@pytest.fixture(scope="session")
def joined45(joined45_path) -> Graph:
    return parse_edge_list(joined45_path.read_bytes())
