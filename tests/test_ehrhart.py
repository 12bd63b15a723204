"""Ehrhart h*-vectors from the facet inequalities: an independent oracle.

L(t) = #(tP & Z^d) is counted by brute force over the box [-t, t]^d, which
holds tP since every configuration point lies in [-1, 1]^d, testing
<a_F, x> >= -t for every facet normal a_F the package enumerates.  Then
h*(z) = (1 - z)^(d+1) * sum_t L(t) z^t, truncated to degree d, needs L(t)
for t <= d only.  A symmetric edge polytope is reflexive, so h* is
palindromic; P & Z^d is the 2m points and the origin, so h*_1 =
#(P & Z^d) - d - 1 = 2m - N + 1; K_N gives C(N-1, i)^2 and a tree on N
vertices (1 + z)^(N-1).  A missing facet can enlarge the counted region
and break these identities (test_dropped_facet_detected); one parallel
to a face of the box cannot, as the box already cuts there.
"""

import functools
import itertools
from math import comb

import pytest

from adjpoly import Graph, enumerate_all_facets

from conftest import complete_graph, cycle_graph, path_graph

GRAPHS = {
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "P4": path_graph(4),
    "K2,3": Graph(5, [(u, v) for u in (1, 2) for v in (3, 4, 5)]),
    "star5": Graph(5, [(1, v) for v in range(2, 6)]),
}


def h_star(normals, d: int) -> list[int]:
    """h*_0..h*_d of the polytope {x : <a, x> >= -1 for a in normals}."""
    counts = []
    for t in range(d + 1):
        box = itertools.product(range(-t, t + 1), repeat=d)
        counts.append(
            sum(
                all(sum(a * x for a, x in zip(normal, p)) >= -t for normal in normals)
                for p in box
            )
        )
    return [
        sum((-1) ** j * comb(d + 1, j) * counts[k - j] for j in range(k + 1))
        for k in range(d + 1)
    ]


@functools.lru_cache(maxsize=None)
def normals_of(name: str) -> tuple[tuple[int, ...], ...]:
    return tuple(f.normal for f in enumerate_all_facets(GRAPHS[name]))


@functools.lru_cache(maxsize=None)
def h_star_of(name: str) -> tuple[int, ...]:
    return tuple(h_star(normals_of(name), GRAPHS[name].n))


@pytest.mark.parametrize("name", GRAPHS)
def test_palindromic_with_h1_from_point_count(name):
    g = GRAPHS[name]
    h = h_star_of(name)
    assert h == h[::-1]
    assert h[1] == 2 * g.m - g.vertex_count + 1


@pytest.mark.parametrize("name, n", [("K3", 3), ("K4", 4), ("K5", 5)])
def test_complete_graph_squared_binomials(name, n):
    assert h_star_of(name) == tuple(comb(n - 1, i) ** 2 for i in range(n))


@pytest.mark.parametrize("name, n", [("P4", 4), ("star5", 5)])
def test_tree_binomials(name, n):
    assert h_star_of(name) == tuple(comb(n - 1, i) for i in range(n))


@pytest.mark.parametrize(
    "name, expected",
    [
        ("C4", (1, 5, 5, 1)),
        ("C5", (1, 6, 16, 6, 1)),
        ("K2,3", (1, 8, 14, 8, 1)),
    ],
)
def test_known_vectors(name, expected):
    assert h_star_of(name) == expected


# the oracle is not vacuous: without the first facet the counted region
# grows, and h* stops being palindromic or h*_1 changes
@pytest.mark.parametrize("name", ["K4", "C5", "K2,3"])
def test_dropped_facet_detected(name):
    g = GRAPHS[name]
    h = h_star(normals_of(name)[1:], g.n)
    assert h != h[::-1] or h[1] != 2 * g.m - g.vertex_count + 1
