"""Benchmark inputs, job lists and output checks.

Every input is generated here from the workload name and the seed and
written as an edge-list file; the program under test only ever sees those
files.  The expected answers come from closed forms or from the
independent counter `count_facets` below, never from the package itself.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import random
from collections import deque
from math import comb
from pathlib import Path

WORKLOADS = ("enumerate", "scan", "census", "oracle")

Edge = tuple[int, int]


class CheckFailed(Exception):
    """A job's output disagrees with the expected answer."""


@dataclasses.dataclass
class Graph:
    name: str
    n: int
    edges: tuple[Edge, ...]
    closed_form: int | None = None  # facet count, where a formula gives it
    subgraphs: int | None = None  # number of maximal bipartite subgraphs
    simplicial: bool | None = None  # True iff the graph has no even cycle

    @functools.cached_property
    def facets(self) -> int:
        """Expected facet count: the closed form, else the independent count."""
        if self.closed_form is not None:
            return self.closed_form
        return count_facets(self.n, self.edges)

    def text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)


@dataclasses.dataclass
class Job:
    argv: list[str]
    graph: Graph
    kind: str  # facets | homogenize | bipartite | simplicial | count | oracle
    # set by the warm-up pass: hash of the checked output, its verdict and
    # the number of facets it emits
    digest: bytes = b""
    ok: bool = False
    facets: int = 0


# ---------------------------------------------------------------- graphs


def _cycle(n):
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


def _path(n):
    return [(i, i + 1) for i in range(1, n)]


def _complete(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def _grid(rows, cols):
    def idx(i, j):
        return i * cols + j + 1

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((idx(i, j), idx(i, j + 1)))
            if i + 1 < rows:
                edges.append((idx(i, j), idx(i + 1, j)))
    return edges


def _joined(m1, m2):
    # a 2*m1-cycle and a (2*m2+1)-cycle sharing the edge {1, 2}
    even = 2 * m1
    chain = [2] + list(range(even + 1, even + 2 * m2)) + [1]
    return _cycle(even) + list(zip(chain, chain[1:]))


_PETERSEN = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 7), (3, 8),
             (4, 9), (5, 10), (6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]


def cycle(n) -> Graph:
    k = n // 2
    if n % 2:
        return Graph(f"C{n}", n, tuple(_cycle(n)), n * comb(2 * k, k), n, True)
    return Graph(f"C{n}", n, tuple(_cycle(n)), comb(n, k), 1, False)


def path(n) -> Graph:
    return Graph(f"P{n}", n, tuple(_path(n)), 2 ** (n - 1), 1, True)


def complete(n) -> Graph:
    return Graph(f"K{n}", n, tuple(_complete(n)), 2**n - 2, 2 ** (n - 1) - 1, n < 4)


def joined_counts(m1, m2) -> tuple[int, int]:
    """Corank-0 and corank-1 facet counts of the joined cycles J(m1, m2)."""
    odd = comb(2 * m2, m2)
    corank0 = (2 * m1 - 1) * comb(2 * m1 - 2, m1 - 1) * odd
    corank1 = 2 * m2 * comb(2 * m1 - 1, m1) * odd
    return corank0, corank1


def joined(m1, m2) -> Graph:
    n = 2 * m1 + 2 * m2 - 1
    total = sum(joined_counts(m1, m2))
    return Graph(f"J{m1}_{m2}", n, tuple(_joined(m1, m2)), total, 2 * m1 - 1 + 2 * m2, False)


def grid(rows, cols) -> Graph:
    return Graph(f"grid{rows}x{cols}", rows * cols, tuple(_grid(rows, cols)), None, 1, False)


def petersen() -> Graph:
    return Graph("petersen", 10, tuple(_PETERSEN), None, None, False)


def random_edges(rng: random.Random, n: int, m: int) -> tuple[Edge, ...]:
    """Uniform connected graph with exactly m edges on vertices 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        if _connected(n, edges):
            return edges


def _adjacency(n, edges) -> dict[int, list[int]]:
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connected(n, edges) -> bool:
    """The edges touch all of 1..n and connect them."""
    return _tight_spanning(n, _adjacency(n, edges), None)


# ------------------------------------------------------- facet oracle


def _tight_spanning(n, adj, f) -> bool:
    """Edges with |f(u) - f(v)| = 1 (all edges if f is None) connect 1..n."""
    seen = {1}
    stack = [1]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if w not in seen and (f is None or abs(f[w] - f[x]) == 1):
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def count_facets(n: int, edges) -> int:
    """Facet count of the symmetric edge polytope, by potentials.

    Facets correspond to integer potentials f with f(1) = 0 and
    |f(u) - f(v)| <= 1 on every edge whose tight edges (difference +-1)
    form a connected spanning subgraph (Matsui, Higashitani, Nagazawa,
    Ohsugi and Hibi, 2011).  Search over vertices in BFS order, each
    within one of its BFS parent.
    """
    adj = _adjacency(n, edges)
    order = [1]
    parent = {1: 0}
    queue = deque([1])
    while queue:
        x = queue.popleft()
        for w in sorted(adj[x]):
            if w not in parent:
                parent[w] = x
                order.append(w)
                queue.append(w)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[w for w in adj[v] if pos[w] < pos[v]] for v in order]
    f = [0] * (n + 1)
    total = 0

    def extend(i):
        nonlocal total
        if i == n:
            total += _tight_spanning(n, adj, f)
            return
        v = order[i]
        base = f[parent[v]]
        for value in (base - 1, base, base + 1):
            if all(-1 <= value - f[w] <= 1 for w in earlier[i]):
                f[v] = value
                extend(i + 1)

    extend(1)
    return total


def _certify_normal(g: Graph, adj, normal) -> list[tuple[int, int]]:
    """Check one facet normal by potentials; return its tight directed edges."""
    if len(normal) != g.n - 1:
        raise CheckFailed(f"{g.name}: normal {normal} has wrong length")
    f = [0, 0] + list(normal)
    tight = []
    for u, v in g.edges:
        diff = f[u] - f[v]
        if diff == -1:
            tight.append((u, v))
        elif diff == 1:
            tight.append((v, u))
        elif diff != 0:
            raise CheckFailed(f"{g.name}: normal {normal} is not a supporting normal")
    if not _tight_spanning(g.n, adj, f):
        raise CheckFailed(f"{g.name}: normal {normal} does not define a facet")
    return tight


# ------------------------------------------------------------ checks


def _point(n, tail, head):
    coords = [0] * (n - 1)
    if tail > 1:
        coords[tail - 2] += 1
    if head > 1:
        coords[head - 2] -= 1
    return coords


def _check_facets_json(g: Graph, out: str) -> int:
    doc = json.loads(out)
    adj = _adjacency(g.n, g.edges)
    seen = set()
    for cls in doc["classes"]:
        if cls["class_size"] != len(cls["facets"]):
            raise CheckFailed(f"{g.name}: class size disagrees with its facets")
        for facet in cls["facets"]:
            normal = tuple(facet["normal"])
            tight = _certify_normal(g, adj, normal)
            points = sorted(_point(g.n, t, h) for t, h in tight)
            if sorted(facet["points"]) != points:
                raise CheckFailed(f"{g.name}: facet {normal} lists wrong points")
            if facet["dim"] != g.n - 2 or facet["corank"] != len(points) - g.n + 1:
                raise CheckFailed(f"{g.name}: facet {normal} has wrong dim/corank")
            seen.add(normal)
    count = sum(len(cls["facets"]) for cls in doc["classes"])
    if len(seen) != count or doc["total"] != count or count != g.facets:
        raise CheckFailed(f"{g.name}: {count} facets, expected {g.facets}")
    return count


def _check_homogenize(g: Graph, out: str) -> int:
    lines = out.splitlines()
    count, dim = map(int, lines[0].split())
    rows = [tuple(map(int, line.split())) for line in lines[1:-1]]
    adj = _adjacency(g.n, g.edges)
    for row in rows:
        _certify_normal(g, adj, row)
    if (
        dim != g.n - 1
        or count != g.facets
        or len(rows) != count
        or len(set(rows)) != count
        or lines[-1].split() != ["-1"] * count
    ):
        raise CheckFailed(f"{g.name}: homogenization data disagrees")
    return count


def _check_bipartite(g: Graph, out: str) -> int:
    lines = out.splitlines()
    count = int(lines[0].rsplit(":", 1)[1])
    if count != g.subgraphs or len(lines) != 1 + 3 * count:
        raise CheckFailed(f"{g.name}: {count} subgraphs, expected {g.subgraphs}")
    everyone = set(range(1, g.n + 1))
    splits = set()
    for i in range(count):
        header, plus_line, minus_line = lines[1 + 3 * i : 4 + 3 * i]
        plus = {int(x) for x in plus_line.split("=")[1].split()}
        minus = {int(x) for x in minus_line.split("=")[1].split()}
        crossing = [(u, v) for u, v in g.edges if (u in plus) != (v in plus)]
        expected = f"subgraph {i}: edges={len(crossing)} corank={len(crossing) - g.n + 1}"
        if (
            1 not in plus
            or plus | minus != everyone
            or plus & minus
            or header != expected
            or not _connected(g.n, crossing)
        ):
            raise CheckFailed(f"{g.name}: subgraph {i} is not maximal bipartite")
        splits.add(frozenset(plus))
    if len(splits) != count:
        raise CheckFailed(f"{g.name}: repeated bipartition")
    return 0


def _check_simplicial(g: Graph, out: str) -> int:
    if out != f"simplicial {'yes' if g.simplicial else 'no'}\n":
        raise CheckFailed(f"{g.name}: wrong simpliciality verdict {out!r}")
    return 0


def _check_count(g: Graph, out: str) -> int:
    doc = json.loads(out)
    total = doc["total"]
    if (
        total % 2
        or total > doc["bound"]
        or doc["bound"] != doc["beta"] * 2 ** (g.n - 1)
        or len(doc["classes"]) != doc["beta"]
        or sum(c["size"] for c in doc["classes"]) != total
        or total != g.facets
    ):
        raise CheckFailed(f"{g.name}: census total {total}, expected {g.facets}")
    return total


def _check_oracle(g: Graph, out: str) -> int:
    if out != f"{g.facets} == {g.facets}\n":
        raise CheckFailed(f"{g.name}: oracle check printed {out!r}, expected {g.facets}")
    return g.facets


_CHECKS = {
    "facets": _check_facets_json,
    "homogenize": _check_homogenize,
    "bipartite": _check_bipartite,
    "simplicial": _check_simplicial,
    "count": _check_count,
    "oracle": _check_oracle,
}


def check(job: Job, out: str) -> int:
    """Raise CheckFailed unless out is right; return the facets it emits."""
    try:
        return _CHECKS[job.kind](job.graph, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"{job.graph.name}: unreadable output ({exc!r})") from None


# ------------------------------------------------------------- workloads


def _relabeled_family(name: str, plan, seed: int) -> list[Graph]:
    """One random graph per (n, m) slot of plan, with labels shuffled by seed.

    The graphs are drawn once, from a fixed stream, and the seed only
    permutes their vertex labels.  So a new seed gives new input files but
    the same isomorphism classes, and the same work per pass.
    """
    family = random.Random(name)
    labels = random.Random(f"{name}:{seed}")
    graphs = []
    for i, (n, m) in enumerate(plan):
        edges = random_edges(family, n, m)
        new = list(range(1, n + 1))
        labels.shuffle(new)
        relabeled = tuple(sorted(tuple(sorted((new[u - 1], new[v - 1]))) for u, v in edges))
        graphs.append(Graph(f"{name}{i:03d}", n, relabeled))
    return graphs


# census: N = 6..9 with m = round(0.35 * C(N, 2)) but at least N (never a
# tree).  Job time grows steeply with N, so the slot counts are chosen to
# put the 50th and 90th job percentiles inside the N = 8 and N = 9 groups,
# not in a gap between two groups.
CENSUS_PLAN = [
    (n, max(n, round(0.35 * comb(n, 2))))
    for n, slots in ((6, 10), (7, 14), (8, 24), (9, 22))
    for _ in range(slots)
]
# oracle: within the oracle guard, at two sizes per N; placed like census
ORACLE_PLAN = [(5, 6)] * 4 + [(5, 7)] * 4 + [(6, 8)] * 8 + [(6, 9)] * 8


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Generate the workload's inputs under workdir and return its jobs."""
    if workload == "enumerate":
        graphs = [cycle(10), cycle(9), path(10), petersen(), complete(8), grid(3, 4),
                  grid(3, 3), joined(3, 2), joined(2, 3), joined(2, 2)]
        pairs = [(g, kind) for g in graphs for kind in ("facets", "homogenize")]
    elif workload == "scan":
        graphs = [path(15), cycle(15), grid(3, 5), joined(4, 4)]
        pairs = [(g, kind) for g in graphs for kind in ("bipartite", "simplicial")]
        pairs += [(complete(12), "bipartite"), (complete(13), "bipartite")]
    elif workload == "census":
        pairs = [(g, "count") for g in _relabeled_family("census", CENSUS_PLAN, seed)]
    elif workload == "oracle":
        pairs = [(g, "oracle") for g in _relabeled_family("oracle", ORACLE_PLAN, seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = []
    for g, kind in pairs:
        file = workdir / f"{g.name}.txt"
        file.write_text(g.text(), encoding="utf-8")
        command, *flags = _COMMANDS[kind]
        jobs.append(Job(argv=[command, str(file), *flags], graph=g, kind=kind))
    return jobs


_COMMANDS = {
    "facets": ("facets", "--json"),
    "homogenize": ("kuramoto-support", "--homogenize"),
    "bipartite": ("bipartite",),
    "simplicial": ("simplicial",),
    "count": ("count", "--json"),
    "oracle": ("oracle-check",),
}


def joined_cycles_line(m1: int, m2: int) -> str:
    """Expected stdout of `adjpoly joined-cycles m1 m2`."""
    corank0, corank1 = joined_counts(m1, m2)
    return f"corank0={corank0} corank1={corank1} total={corank0 + corank1}\n"
