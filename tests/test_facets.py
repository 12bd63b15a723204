"""The cycle system and sign search, the class checks and their tamper
tests, relabeling, facet-class facts past the oracle corpus, and the cycle
and balancing oracles.

Oracle equivalence, class bounds, balancing and simpliciality on the whole
corpus are checked once, in test_acceptance.py."""

import itertools
import random
import re
from collections import Counter
from math import comb

import pytest

from adjpoly import facets as facets_mod
from adjpoly import (
    Facet,
    Graph,
    InternalInconsistency,
    TooLarge,
    brute_force_facets,
    build_cycle_system,
    enumerate_all_facets,
    enumerate_facet_classes,
    enumerate_maximal_bipartite_subgraphs,
    enumerate_sign_vectors,
    facet_census,
    parse_edge_list,
    verify_facet,
)
from adjpoly.graphs import MaxBipartiteSubgraph

from conftest import (
    all_cycles,
    balanced_on_all_cycles,
    connected_spanning,
    cycle_graph,
    cyclomatic_number,
    edge_components,
    exhaustive_corpus,
    fraction_rank,
    grid_graph,
    is_bipartite_edges,
    joined_cycles_graph,
    n6_sample_graphs,
    path_graph,
    petersen_graph,
    random_connected_graph,
    scan_sign_vectors,
    sides,
    subgraph_edges,
    tight_edges,
    tight_points,
)


def _tree_edge(step):
    """The step's tree edge, oriented from b's minus side to its plus side."""
    vertex, parent, sign, _ = step
    if sign == 1:
        return (parent, vertex)
    return (vertex, parent)


def _subgraph_by_edges(g, edges):
    target = frozenset(edges)
    matches = [
        b
        for b in enumerate_maximal_bipartite_subgraphs(g)
        if frozenset(subgraph_edges(g, b)) == target
    ]
    assert len(matches) == 1
    return matches[0]


def _normal(steps, d):
    """Oracle: the potentials of vertices 2..n+1 that d sets over the
    steps, vertex 1 at 0."""
    pot = {1: 0}
    for (vertex, parent, sign, _), dk in zip(steps, d):
        pot[vertex] = pot[parent] + sign * dk
    return tuple(pot[v] for v in range(2, len(steps) + 2))


def _replay_scan(steps):
    """Oracle: every sign vector in binary order whose replayed potentials
    meet every check of every step."""
    kept = []
    for d in itertools.product((-1, 1), repeat=len(steps)):
        pot = {1: 0}
        for (vertex, parent, sign, _), dk in zip(steps, d):
            pot[vertex] = pot[parent] + sign * dk
        if all(
            abs(pot[vertex] - pot[u]) == gap
            for vertex, _, _, checks in steps
            for u, gap in checks
        ):
            kept.append(d)
    return kept


def _class_of(g, b):
    (cls,) = [c for c in enumerate_facet_classes(g) if c.subgraph == b]
    return cls


class TestSignOrderEnds:
    """A class starts with the facet of the all-(-1) sign vector, every
    crossing edge oriented plus -> minus, and ends with the all-(+1) one,
    oriented minus -> plus."""

    def test_k2(self):
        g = parse_edge_list("1 2")
        (cls,) = enumerate_facet_classes(g)
        ends = {tight_points(g, cls.facets[0]), tight_points(g, cls.facets[-1])}
        assert ends == {((1,),), ((-1,),)}

    def test_c4_half_vector_normals(self):
        (cls,) = enumerate_facet_classes(cycle_graph(4))
        assert cls.facets[-1].normal == (-1, 0, -1)
        assert cls.facets[0].normal == (1, 0, 1)
        assert len(cls.facets[-1].point_indices) == 4

    def test_triangle_path_subgraph(self):
        g = cycle_graph(3)
        cls = _class_of(g, _subgraph_by_edges(g, [(1, 2), (2, 3)]))
        # crossing edges oriented into V+ = {1, 3}: points (2,1) and (2,3)
        assert set(tight_points(g, cls.facets[-1])) == {(1, 0), (1, -1)}
        assert set(tight_points(g, cls.facets[0])) == {(-1, 0), (-1, 1)}

    def test_ends_of_every_class(self, joined45):
        for g in list(exhaustive_corpus(5)) + [joined45]:
            for cls in enumerate_facet_classes(g):
                steps = build_cycle_system(g, cls.subgraph)
                normals = enumerate_sign_vectors(steps)
                assert normals[0] == _normal(steps, (-1,) * g.n)
                assert normals[-1] == _normal(steps, (1,) * g.n)
                assert normals == [f.normal for f in cls.facets]
                plus, _ = sides(g, cls.subgraph)
                first, last = cls.facets[0], cls.facets[-1]
                into_minus = tight_edges(g, first)
                into_plus = tight_edges(g, last)
                assert all(t in plus and h not in plus for t, h in into_minus)
                assert all(t not in plus and h in plus for t, h in into_plus)
                assert first.normal == tuple(-c for c in last.normal)


class TestCycleSystem:
    def test_k2_single_oriented_edge(self):
        g = parse_edge_list("1 2")
        b = enumerate_maximal_bipartite_subgraphs(g)[0]
        (step,) = build_cycle_system(g, b)
        # a plain (vertex, parent, sign, checks) tuple
        assert type(step) is tuple
        assert step == (2, 1, -1, ())
        assert _tree_edge(step) == (2, 1)

    def test_c4_bfs_tree(self):
        # BFS from 1 with ascending neighbors discovers {1,2}, {1,4}, {2,3}
        g = cycle_graph(4)
        steps = build_cycle_system(g, enumerate_maximal_bipartite_subgraphs(g)[0])
        assert [_tree_edge(s) for s in steps] == [(2, 1), (4, 1), (2, 3)]
        assert [checks for *_, checks in steps] == [(), (), ((4, 1),)]

    def test_triangle_path_subgraph(self):
        # the edge (1, 3) outside b asks 3 to share 1's potential
        g = cycle_graph(3)
        b = _subgraph_by_edges(g, [(1, 2), (2, 3)])
        steps = build_cycle_system(g, b)
        assert [_tree_edge(s) for s in steps] == [(2, 1), (2, 3)]
        assert [checks for *_, checks in steps] == [(), ((1, 0),)]

    def test_joined_cycles_tree_class(self, joined45):
        # spanning-tree subgraph: its two other edges of g need gap 0
        b = _subgraph_by_edges(
            joined45, set(joined45.edges) - {(1, 2), (1, 4)}
        )
        checks = [c for *_, cs in build_cycle_system(joined45, b) for c in cs]
        assert sorted(gap for _, gap in checks) == [0, 0]

    def test_joined_cycles_corank1_class(self, joined45):
        # 4-cycle plus path subgraph: one edge of b and one edge of g
        # outside b close cycles, so one check needs gap 1 and one gap 0
        b = _subgraph_by_edges(joined45, set(joined45.edges) - {(1, 7)})
        checks = [c for *_, cs in build_cycle_system(joined45, b) for c in cs]
        assert sorted(gap for _, gap in checks) == [0, 1]

    def test_deterministic(self, joined45):
        # the steps depend on g and b only, not on how the edge list was
        # written: reversed lines with swapped ends give the same steps
        text = "\n".join(f"{v} {u}" for u, v in reversed(joined45.edges))
        shuffled = parse_edge_list(text)
        pairs = zip(
            enumerate_maximal_bipartite_subgraphs(joined45),
            enumerate_maximal_bipartite_subgraphs(shuffled),
        )
        for b, b2 in pairs:
            assert b == b2
            assert build_cycle_system(joined45, b) == build_cycle_system(shuffled, b2)
            assert build_cycle_system(joined45, b) == build_cycle_system(joined45, b)

    def test_orientation_runs_minus_to_plus(self, joined45):
        for b in enumerate_maximal_bipartite_subgraphs(joined45):
            plus, minus = sides(joined45, b)
            for step in build_cycle_system(joined45, b):
                tail, head = _tree_edge(step)
                assert tail in minus and head in plus

    def test_tree_is_spanning_and_acyclic_in_bfs_order(self):
        for g in exhaustive_corpus(5):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                steps = build_cycle_system(g, b)
                order = [1] + [vertex for vertex, _, _, _ in steps]
                assert sorted(order) == list(range(1, g.vertex_count + 1))
                # BFS: a vertex comes after its parent, and children come
                # in the order their parents were reached
                parents = [order.index(parent) for _, parent, _, _ in steps]
                assert all(p <= k for k, p in enumerate(parents))
                assert parents == sorted(parents)
                tree = [tuple(sorted((p, v))) for v, p, _, _ in steps]
                assert set(tree) <= set(subgraph_edges(g, b))
                assert cyclomatic_number(tree, g) == 0

    def test_checks_cover_the_other_edges(self):
        # each non-tree edge of g is checked once, from its later endpoint,
        # with gap 1 on edges of b and 0 elsewhere
        for g in exhaustive_corpus(5):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                steps = build_cycle_system(g, b)
                position = {1: 0} | {v: k + 1 for k, (v, *_) in enumerate(steps)}
                checked = {}
                for vertex, _, _, checks in steps:
                    for u, gap in checks:
                        assert position[u] < position[vertex]
                        checked[(min(u, vertex), max(u, vertex))] = gap
                tree = {tuple(sorted((p, v))) for v, p, _, _ in steps}
                assert sum(len(checks) for *_, checks in steps) == g.m - g.n
                b_edges = subgraph_edges(g, b)
                assert checked == {
                    e: int(e in b_edges) for e in g.edges if e not in tree
                }
                assert sum(checked.values()) == b.corank


class TestEnumerateSignVectors:
    def test_joined_cycles_tree_class_has_12(self, joined45):
        b = _subgraph_by_edges(
            joined45, set(joined45.edges) - {(1, 2), (1, 4)}
        )
        assert len(enumerate_sign_vectors(build_cycle_system(joined45, b))) == 12

    def test_joined_cycles_corank1_class_has_18(self, joined45):
        b = _subgraph_by_edges(joined45, set(joined45.edges) - {(1, 7)})
        assert len(enumerate_sign_vectors(build_cycle_system(joined45, b))) == 18

    def test_triangle_two_solutions(self):
        g = cycle_graph(3)
        b = _subgraph_by_edges(g, [(1, 2), (2, 3)])
        steps = build_cycle_system(g, b)
        normals = [_normal(steps, d) for d in [(-1, -1), (1, 1)]]
        assert enumerate_sign_vectors(steps) == normals == [(1, 0), (-1, 0)]

    def test_hand_built_systems_exact(self):
        # checks that build_cycle_system never makes: gap 1 across an even
        # tree distance and gap 0 across an odd one cannot be met, so the
        # search must return []; every normal it returns must meet every check
        path = ((2, 1, -1, ()), (3, 2, 1, ()), (4, 3, -1, ()), (5, 4, 1, ()))
        # (step index, (earlier vertex, gap)): step k sets vertex k + 2
        odd_gap1, even_gap0 = (2, (1, 1)), (3, (3, 0))
        even_gap1, odd_gap0 = (1, (1, 1)), (2, (1, 0))
        cases = [
            (),
            (odd_gap1,),
            (odd_gap1, even_gap0),
            (even_gap1,),
            (odd_gap0,),
            (odd_gap1, even_gap0, odd_gap0),
        ]
        for checks in cases:
            steps = list(path)
            for k, check in checks:
                vertex, parent, sign, step_checks = steps[k]
                steps[k] = (vertex, parent, sign, step_checks + (check,))
            steps = tuple(steps)
            solutions = enumerate_sign_vectors(steps)
            assert solutions == [_normal(steps, d) for d in _replay_scan(steps)]
            impossible = even_gap1 in checks or odd_gap0 in checks
            assert (solutions == []) == impossible

    def test_binary_order(self):
        # -1 before +1 at every depth: the normals of a class come in the
        # order of their sign vectors sorted with -1 < +1, and a tree class
        # has all 2^n of them
        for g in exhaustive_corpus(4):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                steps = build_cycle_system(g, b)
                ds = _replay_scan(steps)  # in itertools.product order
                assert enumerate_sign_vectors(steps) == [_normal(steps, d) for d in ds]
        g = path_graph(5)
        (b,) = enumerate_maximal_bipartite_subgraphs(g)
        steps = build_cycle_system(g, b)
        assert enumerate_sign_vectors(steps) == [
            _normal(steps, d) for d in itertools.product((-1, 1), repeat=4)
        ]

    def test_matches_fundamental_cycle_scan(self):
        # the normals of the same sign vectors, in the same order, as a scan
        # of all 2^n vectors against the fundamental-cycle rows of the same
        # BFS tree
        rng = random.Random(77)
        graphs = list(exhaustive_corpus(5)) + [
            random_connected_graph(rng.randint(6, 9), rng.uniform(0.15, 0.6), rng)
            for _ in range(100)
        ]
        classes = 0
        for g in graphs:
            for b in enumerate_maximal_bipartite_subgraphs(g):
                steps = build_cycle_system(g, b)
                normals = [_normal(steps, d) for d in scan_sign_vectors(g, b)]
                assert enumerate_sign_vectors(steps) == normals, (g.edges, b)
                classes += 1
        assert classes > 9_000

    def test_guard_on_huge_tree(self):
        # 20,000 tree edges: 2^n has more decimal digits than int -> str
        # allows, so the guard must refuse without printing it
        g = path_graph(20001)
        odd = sum(1 << v for v in range(1, 20002, 2))
        b = MaxBipartiteSubgraph(odd, (1 << g.m) - 1, 0)
        steps = build_cycle_system(g, b)
        assert len(steps) == 20000
        with pytest.raises(TooLarge, match=r"n = 20000 > 30 .* up to 2\^20000 sign"):
            enumerate_sign_vectors(steps)

    def test_facet_bound(self, monkeypatch):
        # a tree has one class, of all 2^n sign vectors
        g = path_graph(6)
        (b,) = enumerate_maximal_bipartite_subgraphs(g)
        steps = build_cycle_system(g, b)
        monkeypatch.setattr(facets_mod, "ENUMERATION_MAX_FACETS", 32)
        assert len(enumerate_sign_vectors(steps)) == 32
        monkeypatch.setattr(facets_mod, "ENUMERATION_MAX_FACETS", 31)
        message = (
            "facet guard: more than 31 facets, 0 before this class, "
            "whose search over n = 5 tree edges would keep up to 2^5"
        )
        with pytest.raises(TooLarge, match=re.escape(message)):
            enumerate_sign_vectors(steps)

    def test_facet_bound_counts_earlier_facets(self, monkeypatch):
        # one 6-facet class of C5 under a bound of 20: it fits after 14
        # earlier facets and not after 15
        g = cycle_graph(5)
        steps = build_cycle_system(g, enumerate_maximal_bipartite_subgraphs(g)[0])
        monkeypatch.setattr(facets_mod, "ENUMERATION_MAX_FACETS", 20)
        assert len(enumerate_sign_vectors(steps, found=14)) == 6
        message = (
            "facet guard: more than 20 facets, 15 before this class, "
            "whose search over n = 4 tree edges would keep up to 2^4"
        )
        with pytest.raises(TooLarge, match=re.escape(message)):
            enumerate_sign_vectors(steps, found=15)


class TestFacetTightEdges:
    def test_joined_cycles_corank1_shape(self, joined45):
        b = _subgraph_by_edges(joined45, set(joined45.edges) - {(1, 7)})
        cls = _class_of(joined45, b)
        assert len(cls.facets) == 18
        assert cls.subgraph.corank == 1
        for facet in cls.facets:
            # one point per edge of the 7-edge subgraph, which connects all
            # 7 vertices: dim 7 - 2 = 5 and corank 7 - 6 = 1
            assert len(facet.point_indices) == 7
            assert connected_spanning(tight_edges(joined45, facet), 7)
            assert fraction_rank(tight_points(joined45, facet)) - 1 == 5
            assert cyclomatic_number(tight_edges(joined45, facet), joined45) == 1

    def test_signed_tree_points_lie_on_facet(self, joined45):
        for g in (cycle_graph(4), joined45):
            for cls in enumerate_facet_classes(g):
                steps = build_cycle_system(g, cls.subgraph)
                ds = scan_sign_vectors(g, cls.subgraph)
                normals = [_normal(steps, d) for d in ds]
                assert normals == [f.normal for f in cls.facets]
                for d, facet in zip(ds, cls.facets):
                    for dk, step in zip(d, steps):
                        oriented = _tree_edge(step)
                        edge = oriented if dk == 1 else oriented[::-1]
                        assert edge in tight_edges(g, facet)


class TestEnumerateAllFacets:
    def test_classes_partition_oracle_by_subgraph(self, joined45):
        by_subgraph = {}
        for f in brute_force_facets(joined45):
            edges = tuple(joined45.edges[i >> 1] for i in f.point_indices)
            by_subgraph.setdefault(edges, set()).add(f.normal)
        for cls in enumerate_facet_classes(joined45):
            edges = subgraph_edges(joined45, cls.subgraph)
            assert {f.normal for f in cls.facets} == by_subgraph[edges]

    def test_globally_duplicate_free(self, joined45):
        facets = enumerate_all_facets(joined45)
        normals = [f.normal for f in facets]
        assert len(set(normals)) == len(normals)

    def test_facet_bound_before_building(self, monkeypatch):
        # C5: five classes of 6 facets each; the fourth takes the total
        # past 20, so its sign search raises after the first three classes'
        # 18 facets are certified
        g = cycle_graph(5)
        monkeypatch.setattr(facets_mod, "ENUMERATION_MAX_FACETS", 30)
        assert len(enumerate_all_facets(g)) == 30
        verified = 0
        verify = facets_mod.verify_facet

        def counted(*args):
            nonlocal verified
            verified += 1
            return verify(*args)

        monkeypatch.setattr(facets_mod, "verify_facet", counted)
        monkeypatch.setattr(facets_mod, "ENUMERATION_MAX_FACETS", 20)
        message = (
            "facet guard: more than 20 facets, 18 before this class, "
            "whose search over n = 4 tree edges would keep up to 2^4"
        )
        with pytest.raises(TooLarge, match=re.escape(message)):
            enumerate_facet_classes(g)
        assert verified == 18


def _tamper(monkeypatch, target, replace):
    """Make facets.verify_facet return replace(facet) for the facet whose
    normal is target, and every other facet unchanged."""
    verify = facets_mod.verify_facet

    def tampered(g, normal):
        facet = verify(g, normal)
        return replace(facet) if facet.normal == target else facet

    monkeypatch.setattr(facets_mod, "verify_facet", tampered)


class TestClassChecks:
    """The two facts enumerate_facet_classes asserts, each made to fail.

    C5 has five classes of six facets; each class's subgraph is a path
    through four of the five edges.
    """

    SUBGRAPH = "facet subgraph does not match the generating bipartite subgraph"

    @pytest.mark.parametrize("change", ["one_edge_fewer", "other_edge", "extra_edge"])
    def test_facet_on_other_edges(self, monkeypatch, change):
        g = cycle_graph(5)
        cls = enumerate_facet_classes(g)[1]
        facet = cls.facets[2]
        (outside,) = [k for k in range(g.m) if not cls.subgraph.cut >> k & 1]
        indices = facet.point_indices
        indices = {
            "one_edge_fewer": indices[:-1],
            "other_edge": tuple(sorted(indices[1:] + (2 * outside,))),
            "extra_edge": tuple(sorted(indices + (2 * outside + 1,))),
        }[change]
        _tamper(monkeypatch, facet.normal, lambda f: Facet(f.normal, indices))
        with pytest.raises(InternalInconsistency, match=self.SUBGRAPH):
            enumerate_facet_classes(g)

    def test_orientation_flip_is_the_same_edge_set(self, monkeypatch):
        # the check is on edges; which orientation is tight is verify_facet's
        g = cycle_graph(5)
        facet = enumerate_facet_classes(g)[3].facets[0]
        flipped = tuple(sorted(i ^ 1 for i in facet.point_indices))
        _tamper(monkeypatch, facet.normal, lambda f: Facet(f.normal, flipped))
        assert len(enumerate_all_facets(g)) == 30

    def test_one_normal_twice_in_a_class(self, monkeypatch):
        g = cycle_graph(5)
        search = facets_mod.enumerate_sign_vectors
        calls = 0

        def repeated(steps, found):
            nonlocal calls
            calls += 1
            normals = search(steps, found)
            return normals + normals[:1] if calls == 3 else normals

        first = enumerate_facet_classes(g)[2].facets[0].normal
        monkeypatch.setattr(facets_mod, "enumerate_sign_vectors", repeated)
        message = f"facet normal {first} produced by classes 2 and 2"
        with pytest.raises(InternalInconsistency, match=re.escape(message)):
            enumerate_facet_classes(g)

    def test_one_normal_in_two_classes(self, monkeypatch):
        # the fourth class's second facet comes back with the normal of the
        # first class's last facet, on its own class's points; the normal
        # as verify_facet returns it is the key, not the search's tuple
        g = cycle_graph(5)
        classes = enumerate_facet_classes(g)
        taken = classes[0].facets[-1].normal
        target = classes[3].facets[1].normal
        _tamper(monkeypatch, target, lambda f: Facet(taken, f.point_indices))
        message = f"facet normal {taken} produced by classes 0 and 3"
        with pytest.raises(InternalInconsistency, match=re.escape(message)):
            enumerate_facet_classes(g)


# past the brute-force oracle's guard (dim > 8)
_RELABELED_GRAPHS = {
    "joined33": joined_cycles_graph(3, 3),
    "cycle12": cycle_graph(12),
    "grid3x4": grid_graph(3, 4),
    "petersen": petersen_graph(),
    **{
        f"random{n}": random_connected_graph(n, 0.2, random.Random(n))
        for n in range(9, 13)
    },
}


class TestRelabeling:
    """A vertex permutation pi takes each facet normal p of G to the normal
    p'(w) = p(pi^-1 w) - p(pi^-1 1) of pi(G), and each class to a class
    of the same corank and size.  Every label-dependent path runs
    differently on pi(G): the BFS from vertex 1, the bitmask order, the
    step order and the cover's stamps."""

    @pytest.mark.parametrize(
        "g", list(_RELABELED_GRAPHS.values()), ids=list(_RELABELED_GRAPHS)
    )
    def test_normals_and_census_transport(self, g):
        rng = random.Random(15)
        vertices = range(1, g.vertex_count + 1)
        potentials = [(0, 0) + f.normal for f in enumerate_all_facets(g)]
        census = Counter(facet_census(g))
        for _ in range(2):
            labels = list(vertices)
            rng.shuffle(labels)
            pi = dict(zip(vertices, labels))
            inverse = {w: v for v, w in pi.items()}
            h = Graph(g.vertex_count, [(pi[u], pi[v]) for u, v in g.edges])
            transported = {
                tuple(p[inverse[w]] - p[inverse[1]] for w in vertices[1:])
                for p in potentials
            }
            assert {f.normal for f in enumerate_all_facets(h)} == transported
            assert Counter(facet_census(h)) == census


def _star(n: int) -> Graph:
    return Graph(n, [(1, v) for v in range(2, n + 1)])


def _binary_tree(n: int) -> Graph:
    return Graph(n, [(v // 2, v) for v in range(2, n + 1)])


_TREES = {
    **{f"path{n}": path_graph(n) for n in range(2, 9)},
    **{f"star{n}": _star(n) for n in range(4, 9)},
    "binary7": _binary_tree(7),
    "binary9": _binary_tree(9),
    "spider": Graph(8, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7), (7, 8)]),
    "caterpillar": Graph(8, [(1, 2), (2, 3), (3, 4), (1, 5), (2, 6), (3, 7), (4, 8)]),
}

# Graphs on 8-10 vertices: criterion 6 checks the class facts only up to N = 7
_LARGER_GRAPHS = {
    "path8": path_graph(8),
    "star8": _star(8),
    "binary9": _binary_tree(9),
    "cycle8": cycle_graph(8),
    "cycle10": cycle_graph(10),
    "cube": Graph(
        8,
        [
            (u + 1, v + 1)
            for u, v in itertools.combinations(range(8), 2)
            if bin(u ^ v).count("1") == 1
        ],
    ),
    "wheel8": Graph(
        8, [(1, v) for v in range(2, 9)] + [(v, v + 1) for v in range(2, 8)] + [(2, 8)]
    ),
    "k26": Graph(8, [(u, v) for u in (1, 2) for v in range(3, 9)]),
    "dumbbell": Graph(
        8, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (6, 8)]
    ),
    "theta333": Graph(
        8, [(1, 3), (3, 4), (4, 2), (1, 5), (5, 6), (6, 2), (1, 7), (7, 8), (8, 2)]
    ),
    "grid2x4": grid_graph(2, 4),
    "grid2x5": grid_graph(2, 5),
    "grid3x3": grid_graph(3, 3),
    **{
        f"random8_seed{s}": random_connected_graph(8, 0.12, random.Random(s))
        for s in range(12)
    },
}


class TestFacetClassFacts:
    """Each facet's dim, corank and independence, read from its class."""

    def test_c4_facet_is_circuit(self):
        # the tight subgraph is the whole 4-cycle: one component with every
        # degree 2, so dim 4 - 2 = 2, corank 1 and 4 dependent points
        g = cycle_graph(4)
        (cls,) = enumerate_facet_classes(g)
        facet = cls.facets[0]
        points = tight_points(g, facet)
        degree = Counter(v for e in tight_edges(g, facet) for v in e)
        assert cls.subgraph.corank == 1
        assert connected_spanning(tight_edges(g, facet), 4)
        assert degree == {v: 2 for v in range(1, g.vertex_count + 1)}
        assert fraction_rank(points) - 1 == 2
        assert fraction_rank(points) < len(points) == 4

    def test_tree_facet_independent(self, joined45):
        tree_cls = [
            c
            for c in enumerate_facet_classes(joined45)
            if c.subgraph.corank == 0
        ][0]
        facet = tree_cls.facets[0]
        points = tight_points(joined45, facet)
        degree = Counter(v for e in tight_edges(joined45, facet) for v in e)
        # a spanning tree: 6 independent points, a simplex of dim 5, and a
        # leaf, so no circuit
        assert connected_spanning(tight_edges(joined45, facet), 7)
        assert fraction_rank(points) == len(points) == 6
        assert min(degree.values()) == 1

    def test_matches_graph_formulas(self, joined45):
        _assert_class_facts(joined45)

    @pytest.mark.parametrize(
        "g", list(_LARGER_GRAPHS.values()), ids=list(_LARGER_GRAPHS)
    )
    def test_matches_graph_formulas_past_oracle_corpus(self, g):
        _assert_class_facts(g)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycle_facets(self, n):
        # C_2k is one circuit class with C(2k, k) facets; each of the 2k+1
        # paths left by deleting an edge of C_2k+1 is a simplex class with
        # C(2k, k) facets
        g = cycle_graph(n)
        classes = enumerate_facet_classes(g)
        assert len(classes) == (1 if n % 2 == 0 else n)
        for cls in classes:
            assert len(cls.facets) == comb(2 * (n // 2), n // 2)
            for facet in cls.facets:
                points = tight_points(g, facet)
                degree = Counter(v for e in tight_edges(g, facet) for v in e)
                assert fraction_rank(points) == n - 1
                if n % 2 == 0:
                    assert cls.subgraph.corank == 1
                    assert len(points) == n
                    assert set(degree.values()) == {2}
                else:
                    assert cls.subgraph.corank == 0
                    assert len(points) == n - 1
                    assert sorted(degree.values()).count(1) == 2
                assert connected_spanning(tight_edges(g, facet), n)

    @pytest.mark.parametrize("g", list(_TREES.values()), ids=list(_TREES))
    def test_tree_facets_form_a_cross_polytope(self, g):
        # a tree's N - 1 edge vectors are a basis, so its polytope is the
        # cross-polytope: one class, 2^(N-1) facets, each a simplex
        n = g.vertex_count
        (cls,) = enumerate_facet_classes(g)
        assert subgraph_edges(g, cls.subgraph) == g.edges
        assert cls.subgraph.corank == 0
        assert len(cls.facets) == 2 ** (n - 1)
        assert len({f.normal for f in cls.facets}) == 2 ** (n - 1)
        for facet in cls.facets:
            assert fraction_rank(tight_points(g, facet)) == len(facet.point_indices) == n - 1


def _assert_class_facts(g) -> None:
    """Every facet is balanced, spans and connects all N vertices (rank
    N - 1, so dim N - 2), has its class's corank, and is independent iff
    that corank is 0."""
    cycles = all_cycles(g)
    for cls in enumerate_facet_classes(g):
        corank = cls.subgraph.corank
        for facet in cls.facets:
            edges = [g.edges[i >> 1] for i in facet.point_indices]
            rank = fraction_rank(tight_points(g, facet))
            assert corank == cyclomatic_number(edges, g)
            assert corank == len(edges) - rank
            assert connected_spanning(edges, g.vertex_count)
            assert rank - 1 == g.vertex_count - 2
            assert (rank == len(edges)) == (corank == 0)
            assert balanced_on_all_cycles(cycles, tight_edges(g, facet))


class TestFaceSubgraphs:
    def test_pairwise_intersections_components(self):
        # each component of a face subgraph is maximal bipartite in the
        # subgraph induced on its own vertices
        for g in [cycle_graph(4), cycle_graph(3), n6_sample_graphs()["theta"]]:
            facets = enumerate_all_facets(g)
            for f1, f2 in itertools.combinations(facets, 2):
                common = set(f1.point_indices) & set(f2.point_indices)
                if not common:
                    continue
                edges = set()
                for idx in common:
                    i, j = g.directed_edges[idx]
                    edges.add((i, j) if i < j else (j, i))
                for comp in edge_components(edges):
                    comp_edges = {e for e in edges if e[0] in comp}
                    induced = [e for e in g.edges if e[0] in comp and e[1] in comp]
                    for extra in set(induced) - comp_edges:
                        assert not is_bipartite_edges(comp_edges | {extra})


class TestBalancing:
    def test_cycle_enumeration(self, joined45):
        cycles = {frozenset(c) for c in all_cycles(joined45)}
        assert cycles == {
            frozenset({1, 2, 3, 4}),
            frozenset({1, 4, 5, 6, 7}),
            frozenset({1, 2, 3, 4, 5, 6, 7}),
        }

    def test_c40_facet(self):
        # alternating 0/1 potentials make every edge of C40 tight
        g = cycle_graph(40)
        facet = verify_facet(g, tuple((v - 1) % 2 for v in range(2, 41)))
        edges = tight_edges(g, facet)
        assert len(edges) == 40
        cycles = all_cycles(g)
        assert balanced_on_all_cycles(cycles, edges)
        flipped = ((2, 1),) + edges[1:]
        assert edges[0] == (1, 2)
        assert balanced_on_all_cycles(cycles, flipped) is False

    def test_unbalanced_orientation_rejected(self):
        # orient three of C4's edges forward and one backward around the
        # cycle: the quadruple covers C4 but meets it 3-to-1
        g = cycle_graph(4)
        directed = ((1, 2), (2, 3), (3, 4), (1, 4))
        assert balanced_on_all_cycles(all_cycles(g), directed) is False
