"""Connected simple graphs and their bipartite structure.

Vertices are labeled 1..N.  Undirected edges are stored as (u, v) with
u < v, sorted lexicographically; a directed edge is a plain (tail, head)
tuple.  Everything here is immutable after construction but one cache,
Graph.tight_rank: an immutable pair holding an exact pure value, replaced
whole, so a thread reads the old pair or the new one and either is
correct.  So values can be shared freely across threads.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import ParseError, TooLarge, ValidationError, show

Edge = tuple[int, int]
DirectedEdge = tuple[int, int]

# K_19 (262,143 subgraphs) still answers; K_20 would build 524,287
BIPARTITE_MAX_SUBGRAPHS = 1 << 18

# int() would also take "+1", "1_0" and non-ASCII digits
_LABEL = re.compile(r"-?[0-9]+")
# str.splitlines() and str.split() would also split at Unicode separators
_LINE_END = re.compile(r"\r\n?|\n")
_TOKEN_GAP = re.compile(r"[ \t]+")


class Graph:
    """Simple connected undirected graph on vertices 1..N.

    The edge list is normalized to (min, max) pairs and kept in
    lexicographic order; every vector in the package is indexed against
    this order (or against a spanning tree's discovery order).  The 2m
    directed_edges are the configuration points: index 2k is edges[k] =
    (i, j) and index 2k + 1 is (j, i).  bfs_order lists the vertices
    breadth-first from vertex 1, ascending neighbours.  tight_rank, the
    one attribute that changes, is `geometry.verify_facet`'s cache: the
    (key, rank) pair of the last tight edge set it ranked on this graph,
    key its sorted edge indices; it starts as the empty set, of rank 0.
    """

    def __init__(self, vertex_count: int, edges: Iterable[Edge]):
        # bool is an int subclass and 3.0 == 3, so compare types exactly
        if type(vertex_count) is not int:
            raise ValidationError(f"vertex count {show(vertex_count)} is not an int")
        if vertex_count < 2:
            raise ValidationError(f"need at least 2 vertices, got {show(vertex_count)}")
        normalized = []
        seen = set()
        try:
            edge_iter = iter(edges)
        except TypeError:
            raise ValidationError(f"edge list {show(edges)} is not iterable") from None
        for edge in edge_iter:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {show(edge)} is not a pair") from None
            if type(u) is not int or type(v) is not int:
                raise ValidationError(f"edge {show((u, v))} has a non-int label")
            if u == v:
                raise ValidationError(f"self-loop at vertex {show(u)}")
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValidationError(
                    f"edge {show((u, v))} outside 1..{show(vertex_count)}"
                )
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValidationError(f"duplicate edge {show(e)}")
            seen.add(e)
            normalized.append(e)
        if not normalized:
            raise ValidationError("edge list is empty")
        # a connected graph has at least N - 1 edges; checking that first
        # keeps a far-off label from sizing the adjacency table below
        if vertex_count > len(normalized) + 1:
            raise ValidationError("graph is not connected")
        normalized.sort()

        self.vertex_count = vertex_count
        self.edges: tuple[Edge, ...] = tuple(normalized)
        self.directed_edges: tuple[DirectedEdge, ...] = tuple(
            e for i, j in self.edges for e in ((i, j), (j, i))
        )
        adj: dict[int, list[int]] = {v: [] for v in range(1, vertex_count + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(ws)) for v, ws in adj.items()
        }
        order = [1]
        seen = {1}
        for v in order:
            for w in self.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        if len(order) != vertex_count:
            raise ValidationError("graph is not connected")
        self.bfs_order: tuple[int, ...] = tuple(order)
        self.tight_rank: tuple[tuple[int, ...], int] = ((), 0)

    @property
    def n(self) -> int:
        """Reduced dimension N - 1."""
        return self.vertex_count - 1

    @property
    def m(self) -> int:
        return len(self.edges)


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse the plain-text edge-list format into a validated Graph.

    One edge per line as two 1-based integers, each an optional '-' and
    ASCII digits, separated by spaces or tabs; lines end at \\n, \\r\\n or
    \\r, and no other character separates lines or labels.  Blank lines
    and lines starting with '#' are ignored; N is inferred as the largest
    label seen.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    edges = []
    max_label = 0
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        tokens = _TOKEN_GAP.split(line)
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {show(line)}")
        if not (_LABEL.fullmatch(tokens[0]) and _LABEL.fullmatch(tokens[1])):
            raise ParseError(f"line {lineno}: non-integer label in {show(line)}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:  # past the interpreter's int string limit
            digits = max(len(t.lstrip("-")) for t in tokens)
            message = f"line {lineno}: {digits}-digit integer is too long"
            raise ParseError(message) from None
        if u < 1 or v < 1:
            raise ValidationError(
                f"line {lineno}: labels must be >= 1, got {show(min(u, v))}"
            )
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {show(u)}")
        edges.append((u, v))
        max_label = max(max_label, u, v)
    if not edges:
        raise ValidationError("no edges in input")
    return Graph(max_label, edges)


class MaxBipartiteSubgraph(NamedTuple):
    """A maximal bipartite subgraph of a graph g: two bitmasks and its corank.

    Bit v of plus_mask is set when vertex v is on the plus side (vertex 1
    is), and bit k of cut when g.edges[k] crosses between the sides.
    Maximality forces the crossing edges to be exactly the edges of g
    between the sides, and to form a connected spanning subgraph, so its
    corank (cyclomatic number) is cut.bit_count() - (N - 1).  ==, hash
    and order are the tuple's.
    """

    plus_mask: int
    cut: int
    corank: int


def enumerate_maximal_bipartite_subgraphs(g: Graph) -> list[MaxBipartiteSubgraph]:
    """All maximal bipartite subgraphs of g, in bipartition-bitmask order.

    A maximal bipartite subgraph is the crossing-edge set of a bipartition
    (vertex 1 on the plus side) whose crossing subgraph is connected and
    spanning; each arises from exactly one such bipartition.

    The sides are assigned depth-first, with an explicit stack, in BFS
    order from vertex 1 (ascending neighbours).  A branch tracks the
    components of the crossing subgraph over its assigned vertices by
    their open vertices, those with an unassigned neighbour.  It is cut
    when:

    - a component has no open vertex left before all N vertices are
      assigned: no later edge can touch it, so it stays a component; or
    - the components cannot meet through the unassigned vertices.  A
      crossing path leaving an open vertex x enters the unassigned part
      on the side opposite x's and alternates sides there, so it stays in
      the double cover of the unassigned subgraph (one node per vertex
      and side), within the cover components of x's neighbours taken on
      the side opposite x's.  If the components and those cover
      components do not form one connected whole, no completion is
      connected.  This rule cuts a single non-crossing edge on a long
      even cycle at once, not only when the cycle closes.

    Both rules cut only branches that have no connected spanning
    completion, so no maximal bipartite subgraph is dropped, and every
    branch that reaches the last vertex with one component is one.  The
    cost is therefore output-sensitive, not 2^(N-1): a path or an even
    cycle takes O(N) search nodes and an odd cycle O(N) per subgraph,
    while K_N still yields all 2^(N-1) - 1 subgraphs.  More than
    BIPARTITE_MAX_SUBGRAPHS of them raise TooLarge.  Results are sorted
    by the plus-side bitmask, which is the order of a plain scan over all
    bipartitions.
    """
    n_vert = g.vertex_count
    last = n_vert - 1
    order = g.bfs_order
    position = {v: i for i, v in enumerate(order)}
    cover = _UnassignedCover(g, order, position)
    # bit v of a vertex bitmask stands for vertex v
    earlier = [0] * (n_vert + 1)
    for u, v in g.edges:
        if position[u] < position[v]:
            earlier[v] |= 1 << u
        else:
            earlier[u] |= 1 << v
    # staying[i]: all but the vertices that stop being open once order[i]
    # is assigned
    staying = [-1] * n_vert
    for v in order:
        staying[max(position[w] for w in (v, *g.adjacency[v]))] &= ~(1 << v)
    incident = [0] * (n_vert + 1)  # bit k: vertex meets g.edges[k]
    for k, (u, v) in enumerate(g.edges):
        incident[u] ^= 1 << k
        incident[v] ^= 1 << k

    found: list[MaxBipartiteSubgraph] = []
    # (step, plus, crossing edges, open vertices of each component)
    stack = [(1, 0b10, incident[1], [0b10])]
    while stack:
        i, plus, cut, comps = stack.pop()
        v = order[i]
        bit = 1 << v
        # earlier[v] holds assigned vertices only, so & ~plus is its minus side
        for child_plus, child_cut, touching in (
            (plus | bit, cut ^ incident[v], earlier[v] & ~plus),
            (plus, cut, earlier[v] & plus),
        ):
            merged = bit
            child = []
            for c in comps:
                if c & touching:
                    merged |= c
                else:
                    child.append(c)
            child.append(merged)
            if i == last:
                if len(child) == 1:
                    corank = child_cut.bit_count() - last
                    found.append(MaxBipartiteSubgraph(child_plus, child_cut, corank))
                    if len(found) > BIPARTITE_MAX_SUBGRAPHS:
                        raise TooLarge(
                            f"bipartite guard: more than {BIPARTITE_MAX_SUBGRAPHS} "
                            f"maximal bipartite subgraphs for N = {n_vert}, "
                            f"m = {g.m}; the search would build up to "
                            f"2^{last} - 1 subgraphs"
                        )
                continue
            child = [c & staying[i] for c in child]
            if not all(child):
                continue  # a component closed before the last vertex
            if len(child) > 1 and not cover.joins(i, child, child_plus):
                continue
            stack.append((i + 1, child_plus, child_cut, child))

    found.sort()
    return found


class _UnassignedCover:
    """Double covers of the unassigned subgraphs G[order[i+1:]], for all i.

    Node 2u + s is vertex u on side s (0 plus, 1 minus), and an edge uw
    joins (u, s) with (w, 1 - s).  The vertices are added in reverse
    search order to one union-find that never shortens a path, whose links
    are stamped with the step that added them; the components after step
    i follow only the links stamped later than i.
    """

    def __init__(self, g: Graph, order: tuple[int, ...], position: dict[int, int]):
        self.adjacency = g.adjacency
        self.position = position
        size = 2 * g.vertex_count + 2
        self.parent = list(range(size))
        self.stamp = [-1] * size
        weight = [1] * size
        for j in range(len(order) - 1, 0, -1):
            u = order[j]
            for w in g.adjacency[u]:
                if position[w] < j:
                    continue
                for s in (0, 1):
                    a = self.root(2 * u + s, j - 1)
                    b = self.root(2 * w + 1 - s, j - 1)
                    if a == b:
                        continue
                    if weight[a] < weight[b]:
                        a, b = b, a
                    self.parent[b] = a
                    self.stamp[b] = j
                    weight[a] += weight[b]

    def root(self, node: int, i: int) -> int:
        while self.stamp[node] > i:
            node = self.parent[node]
        return node

    def joins(self, i: int, comps: list[int], plus: int) -> bool:
        """Whether the components can meet through order[i+1:].

        comps holds the open vertices of each component as a bitmask.  Each
        becomes the bitmask of the cover roots reached from its open
        vertices, and the last absorbs those sharing a root with it until
        none is left (they meet) or none shares one (they do not).
        """
        adjacency, position = self.adjacency, self.position
        parent, stamp = self.parent, self.stamp
        reach = []
        for c in comps:
            roots = 0
            while c:
                x = (c & -c).bit_length() - 1
                c &= c - 1
                side = plus >> x & 1  # side of x's crossing neighbours
                for u in adjacency[x]:
                    if position[u] > i:
                        node = 2 * u + side
                        while stamp[node] > i:
                            node = parent[node]
                        roots |= 1 << node
            reach.append(roots)
        joined = reach.pop()
        while reach:
            apart = []
            for roots in reach:
                if roots & joined:
                    joined |= roots
                else:
                    apart.append(roots)
            if len(apart) == len(reach):
                return False
            reach = apart
        return True


def has_even_cycle(g: Graph) -> bool:
    """True iff g contains a cycle of even length.

    An even cycle is bipartite, so it extends to some maximal bipartite
    subgraph, which then has corank >= 1 (held on the subgraph, so no side
    or edge set is built); conversely any cycle inside a bipartite
    subgraph is even.
    """
    return any(b.corank >= 1 for b in enumerate_maximal_bipartite_subgraphs(g))
