"""Sign-vector facet enumeration, face properties, balancing, simpliciality."""

import itertools
import random
from collections import Counter

import pytest

from adjpoly import facets as facets_mod
from adjpoly import (
    EmptySubset,
    PointConfiguration,
    PotentialStep,
    TooLarge,
    ValidationError,
    brute_force_facets,
    build_cycle_system,
    enumerate_all_facets,
    enumerate_facet_classes,
    enumerate_maximal_bipartite_subgraphs,
    enumerate_sign_vectors,
    face_properties,
    has_even_cycle,
    parse_edge_list,
    verify_facet,
)
from adjpoly.geometry import edge_point
from adjpoly.graphs import MaxBipartiteSubgraph

from conftest import (
    all_cycles,
    balanced_on_all_cycles,
    complete_graph,
    component_count,
    cycle_graph,
    cyclomatic_number,
    exhaustive_corpus,
    fraction_rank,
    is_bipartite_edges,
    n6_sample_graphs,
    path_graph,
    random_connected_graph,
    scan_sign_vectors,
)


def _tree_edge(step):
    """The step's tree edge, oriented from b's minus side to its plus side."""
    if step.sign == 1:
        return (step.parent, step.vertex)
    return (step.vertex, step.parent)


def _subgraph_by_edges(g, edges):
    target = frozenset(edges)
    matches = [
        b
        for b in enumerate_maximal_bipartite_subgraphs(g)
        if frozenset(b.edges) == target
    ]
    assert len(matches) == 1
    return matches[0]


def _replay_scan(steps):
    """Oracle: every sign vector in binary order whose replayed potentials
    meet every check of every step."""
    kept = []
    for d in itertools.product((-1, 1), repeat=len(steps)):
        pot = {1: 0}
        for step, dk in zip(steps, d):
            pot[step.vertex] = pot[step.parent] + step.sign * dk
        if all(
            abs(pot[s.vertex] - pot[u]) == gap for s in steps for u, gap in s.checks
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
        cfg = PointConfiguration(g)
        ends = {cls.facets[0].points(cfg), cls.facets[-1].points(cfg)}
        assert ends == {((1,),), ((-1,),)}

    def test_c4_half_vector_normals(self):
        (cls,) = enumerate_facet_classes(cycle_graph(4))
        assert cls.facets[-1].normal == (-1, 0, -1)
        assert cls.facets[0].normal == (1, 0, 1)
        assert len(cls.facets[-1].point_indices) == 4

    def test_triangle_path_subgraph(self):
        g = cycle_graph(3)
        cls = _class_of(g, _subgraph_by_edges(g, [(1, 2), (2, 3)]))
        cfg = PointConfiguration(g)
        # crossing edges oriented into V+ = {1, 3}: points (2,1) and (2,3)
        assert set(cls.facets[-1].points(cfg)) == {(1, 0), (1, -1)}
        assert set(cls.facets[0].points(cfg)) == {(-1, 0), (-1, 1)}

    def test_ends_of_every_class(self, joined45):
        for g in list(exhaustive_corpus(5)) + [joined45]:
            for cls in enumerate_facet_classes(g):
                ds = enumerate_sign_vectors(build_cycle_system(g, cls.subgraph))
                assert ds[0] == (-1,) * g.n and ds[-1] == (1,) * g.n
                plus = cls.subgraph.plus
                first, last = cls.facets[0], cls.facets[-1]
                assert all(t in plus and h not in plus for t, h in first.directed_edges)
                assert all(t not in plus and h in plus for t, h in last.directed_edges)
                assert first.normal == tuple(-c for c in last.normal)


class TestCycleSystem:
    def test_k2_single_oriented_edge(self):
        g = parse_edge_list("1 2")
        b = enumerate_maximal_bipartite_subgraphs(g)[0]
        (step,) = build_cycle_system(g, b)
        # a plain (vertex, parent, sign, checks) tuple
        assert step == (2, 1, -1, ())
        assert (step.vertex, step.parent, step.sign) == (2, 1, -1)
        assert _tree_edge(step) == (2, 1)
        assert step.checks == ()

    def test_c4_bfs_tree(self):
        # BFS from 1 with ascending neighbors discovers {1,2}, {1,4}, {2,3}
        g = cycle_graph(4)
        steps = build_cycle_system(g, enumerate_maximal_bipartite_subgraphs(g)[0])
        assert [_tree_edge(s) for s in steps] == [(2, 1), (4, 1), (2, 3)]
        assert [s.checks for s in steps] == [(), (), ((4, 1),)]

    def test_triangle_path_subgraph(self):
        # the edge (1, 3) outside b asks 3 to share 1's potential
        g = cycle_graph(3)
        b = _subgraph_by_edges(g, [(1, 2), (2, 3)])
        steps = build_cycle_system(g, b)
        assert [_tree_edge(s) for s in steps] == [(2, 1), (2, 3)]
        assert [s.checks for s in steps] == [(), ((1, 0),)]

    def test_joined_cycles_tree_class(self, joined45):
        # spanning-tree subgraph: its two other edges of g need gap 0
        b = _subgraph_by_edges(
            joined45, set(joined45.edges) - {(1, 2), (1, 4)}
        )
        checks = [c for s in build_cycle_system(joined45, b) for c in s.checks]
        assert sorted(gap for _, gap in checks) == [0, 0]

    def test_joined_cycles_corank1_class(self, joined45):
        # 4-cycle plus path subgraph: one edge of b and one edge of g
        # outside b close cycles, so one check needs gap 1 and one gap 0
        b = _subgraph_by_edges(joined45, set(joined45.edges) - {(1, 7)})
        checks = [c for s in build_cycle_system(joined45, b) for c in s.checks]
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
            for step in build_cycle_system(joined45, b):
                tail, head = _tree_edge(step)
                assert tail in b.minus and head in b.plus

    def test_tree_is_spanning_and_acyclic_in_bfs_order(self):
        for g in exhaustive_corpus(5):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                steps = build_cycle_system(g, b)
                order = [1] + [s.vertex for s in steps]
                assert sorted(order) == list(g.vertices())
                # BFS: a vertex comes after its parent, and children come
                # in the order their parents were reached
                parents = [order.index(s.parent) for s in steps]
                assert all(p <= k for k, p in enumerate(parents))
                assert parents == sorted(parents)
                tree = [tuple(sorted((s.parent, s.vertex))) for s in steps]
                assert set(tree) <= set(b.edges)
                assert cyclomatic_number(tree, g) == 0

    def test_checks_cover_the_other_edges(self):
        # each non-tree edge of g is checked once, from its later endpoint,
        # with gap 1 on edges of b and 0 elsewhere
        for g in exhaustive_corpus(5):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                steps = build_cycle_system(g, b)
                position = {1: 0} | {s.vertex: k + 1 for k, s in enumerate(steps)}
                checked = {}
                for s in steps:
                    for u, gap in s.checks:
                        assert position[u] < position[s.vertex]
                        checked[(min(u, s.vertex), max(u, s.vertex))] = gap
                tree = {tuple(sorted((s.parent, s.vertex))) for s in steps}
                assert sum(len(s.checks) for s in steps) == g.m - g.n
                assert checked == {
                    e: int(e in b.edges) for e in g.edges if e not in tree
                }
                assert sum(checked.values()) == b.cyclomatic_number()


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
        assert enumerate_sign_vectors(build_cycle_system(g, b)) == [(-1, -1), (1, 1)]

    def test_hand_built_systems_exact(self):
        # checks that build_cycle_system never makes: gap 1 across an even
        # tree distance and gap 0 across an odd one cannot be met, so the
        # search must return []; every leaf it returns must meet every check
        path = (
            PotentialStep(2, 1, -1, ()),
            PotentialStep(3, 2, 1, ()),
            PotentialStep(4, 3, -1, ()),
            PotentialStep(5, 4, 1, ()),
        )
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
                steps[k] = steps[k]._replace(checks=steps[k].checks + (check,))
            steps = tuple(steps)
            solutions = enumerate_sign_vectors(steps)
            assert solutions == _replay_scan(steps)
            impossible = even_gap1 in checks or odd_gap0 in checks
            assert (solutions == []) == impossible

    def test_binary_order(self):
        # -1 before +1 at every depth: the vectors of a class come sorted
        # with -1 < +1, and a tree class has all 2^n of them
        for g in exhaustive_corpus(4):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                solutions = enumerate_sign_vectors(build_cycle_system(g, b))
                assert solutions == sorted(solutions)
        g = path_graph(5)
        (b,) = enumerate_maximal_bipartite_subgraphs(g)
        assert enumerate_sign_vectors(build_cycle_system(g, b)) == list(
            itertools.product((-1, 1), repeat=4)
        )

    def test_matches_fundamental_cycle_scan(self):
        # same sign vectors in the same order as a scan of all 2^n vectors
        # against the fundamental-cycle rows of the same BFS tree
        rng = random.Random(77)
        graphs = list(exhaustive_corpus(5)) + [
            random_connected_graph(rng.randint(6, 9), rng.uniform(0.15, 0.6), rng)
            for _ in range(100)
        ]
        classes = 0
        for g in graphs:
            for b in enumerate_maximal_bipartite_subgraphs(g):
                ds = enumerate_sign_vectors(build_cycle_system(g, b))
                assert ds == scan_sign_vectors(g, b), (g.edges, b.edges)
                classes += 1
        assert classes > 9_000

    def test_guard_on_huge_tree(self):
        # 20,000 tree edges: 2^n has more decimal digits than int -> str
        # allows, so the guard must refuse without printing it
        g = path_graph(20001)
        odd = frozenset(range(1, 20002, 2))
        b = MaxBipartiteSubgraph(odd, frozenset(g.vertices()) - odd, g.edges)
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
        with pytest.raises(
            TooLarge, match=r"more than 31 sign vectors for n = 5 .* up to 2\^5 of"
        ):
            enumerate_sign_vectors(steps)


class TestFacetFromSignVector:
    def test_c4_bijection_with_oracle(self):
        g = cycle_graph(4)
        (cls,) = enumerate_facet_classes(g)
        ds = enumerate_sign_vectors(build_cycle_system(g, cls.subgraph))
        fast = {f.normal for f in cls.facets}
        oracle = {f.normal for f in brute_force_facets(PointConfiguration(g))}
        assert len(ds) == len(fast) == 6
        assert fast == oracle

    def test_joined_cycles_corank1_shape(self, joined45):
        b = _subgraph_by_edges(joined45, set(joined45.edges) - {(1, 7)})
        facets = _class_of(joined45, b).facets
        assert len(facets) == 18
        for facet in facets:
            # one point per edge of the 7-edge subgraph
            assert len(facet.point_indices) == 7
            props = face_properties(joined45, facet)
            assert (props.dim, props.corank) == (5, 1)

    def test_signed_tree_points_lie_on_facet(self, joined45):
        for g in (cycle_graph(4), joined45):
            for cls in enumerate_facet_classes(g):
                steps = build_cycle_system(g, cls.subgraph)
                ds = enumerate_sign_vectors(steps)
                assert len(ds) == len(cls.facets)
                for d, facet in zip(ds, cls.facets):
                    for dk, step in zip(d, steps):
                        oriented = _tree_edge(step)
                        edge = oriented if dk == 1 else oriented[::-1]
                        assert edge in facet.directed_edges


class TestEnumerateAllFacets:
    def test_even_cycles(self):
        assert len(enumerate_all_facets(cycle_graph(4))) == 6
        assert len(enumerate_all_facets(cycle_graph(6))) == 20

    def test_joined_cycles_census(self, joined45):
        classes = enumerate_facet_classes(joined45)
        sizes = sorted(len(c.facets) for c in classes)
        assert sizes == [12, 12, 12, 18, 18, 18, 18]
        assert len(enumerate_all_facets(joined45)) == 108

    def test_oracle_equivalence_small(self):
        for g in exhaustive_corpus(4):
            fast = {f.normal for f in enumerate_all_facets(g)}
            oracle = {f.normal for f in brute_force_facets(PointConfiguration(g))}
            assert fast == oracle, g.edges

    def test_classes_partition_oracle_by_subgraph(self, joined45):
        cfg = PointConfiguration(joined45)
        by_subgraph = {}
        for f in brute_force_facets(cfg):
            edges = tuple(cfg.point_edges[i] for i in f.point_indices)
            by_subgraph.setdefault(edges, set()).add(f.normal)
        for cls in enumerate_facet_classes(joined45):
            assert {f.normal for f in cls.facets} == by_subgraph[cls.subgraph.edges]

    def test_globally_duplicate_free(self, joined45):
        facets = enumerate_all_facets(joined45)
        normals = [f.normal for f in facets]
        assert len(set(normals)) == len(normals)

    def test_facet_bound_before_building(self, monkeypatch):
        # C5: five classes of 6 facets each; the fourth takes the total
        # past 20, so only the first three are certified
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
        with pytest.raises(TooLarge, match=r"more than 20 facets for n = 4, m = 5"):
            enumerate_facet_classes(g)
        assert verified == 18

    def test_class_bounds(self):
        for g in list(exhaustive_corpus(5)) + list(n6_sample_graphs().values()):
            classes = enumerate_facet_classes(g)
            bound = 1 << g.n
            assert all(len(c.facets) <= bound for c in classes)
            assert sum(len(c.facets) for c in classes) <= len(classes) * bound


class TestFaceProperties:
    def test_single_point(self):
        g = cycle_graph(4)
        props = face_properties(g, [(-1, 0, 0)])
        assert props.dim == 0
        assert props.corank == 0
        assert props.independent is True
        assert props.circuit is False

    def test_c4_facet_is_circuit(self):
        g = cycle_graph(4)
        facet = enumerate_all_facets(g)[0]
        props = face_properties(g, facet)
        assert props.dim == 2
        assert props.corank == 1
        assert props.independent is False
        assert props.circuit is True
        assert props.component_count == 1

    def test_two_disjoint_cycles_no_circuit(self):
        # two 4-cycles joined by the edge (4, 5): without it, every degree
        # is 2 but the subgraph has two components
        g = parse_edge_list("1 2\n2 3\n3 4\n4 1\n4 5\n5 6\n6 7\n7 8\n8 5")
        cfg = PointConfiguration(g)
        facet = enumerate_all_facets(g)[0]
        subset = [
            cfg.points[i]
            for i in facet.point_indices
            if cfg.point_edges[i] != (4, 5)
        ]
        props = face_properties(g, subset)
        assert props.component_count == 2
        assert props.circuit is False
        assert (props.dim, props.corank) == (5, 2)

    def test_tree_facet_independent(self, joined45):
        tree_cls = [
            c
            for c in enumerate_facet_classes(joined45)
            if c.subgraph.cyclomatic_number() == 0
        ][0]
        props = face_properties(joined45, tree_cls.facets[0])
        assert props.dim == 5
        assert props.corank == 0
        assert props.independent is True
        assert props.circuit is False

    def test_empty_subset(self):
        with pytest.raises(EmptySubset):
            face_properties(cycle_graph(4), [])

    def test_point_and_its_negative_rejected(self):
        # no face holds both orientations of an edge
        g = cycle_graph(4)
        cfg = PointConfiguration(g)
        with pytest.raises(ValidationError, match=r"edge \(1, 2\)"):
            face_properties(g, [cfg.points[0], cfg.points[1]])

    def test_repeated_point_rejected(self):
        g = cycle_graph(4)
        cfg = PointConfiguration(g)
        with pytest.raises(ValidationError, match=r"repeated point of edge \(1, 2\)"):
            face_properties(g, [cfg.points[0], cfg.points[0]])

    def test_directed_triangle_rejected(self):
        # the three points sum to the origin, so no supporting hyperplane
        # holds them all
        g = cycle_graph(3)
        triangle = [edge_point(2, 1, 2), edge_point(2, 2, 3), edge_point(2, 3, 1)]
        with pytest.raises(ValidationError, match="no common face"):
            face_properties(g, triangle)

    def test_on_face_iff_inside_a_facet(self):
        # every proper face lies in a facet, so a point set is on a common
        # face iff some facet holds all of it
        rng = random.Random(63)
        verdicts = {True: 0, False: 0}
        for g in exhaustive_corpus(5):
            cfg = PointConfiguration(g)
            facet_sets = [set(f.point_indices) for f in enumerate_all_facets(g)]
            for _ in range(8):
                if rng.random() < 0.5:
                    pool = sorted(rng.choice(facet_sets))
                    indices = rng.sample(pool, rng.randint(1, len(pool)))
                    indices.append(rng.randrange(len(cfg.points)))
                    indices = list(dict.fromkeys(indices))
                else:
                    size = rng.randint(1, min(5, len(cfg.points)))
                    indices = rng.sample(range(len(cfg.points)), size)
                on_face = any(set(indices) <= points for points in facet_sets)
                verdicts[on_face] += 1
                subset = [cfg.points[i] for i in indices]
                if on_face:
                    face_properties(g, subset)
                else:
                    with pytest.raises(ValidationError):
                        face_properties(g, subset)
        assert min(verdicts.values()) > 1000

    def test_dim_is_rank_minus_one_on_facet_subsets(self, joined45):
        # facet points span an affine hull that misses the origin, so their
        # affine dimension is their rank minus one; the subgraph's counts
        # decide the rest
        rng = random.Random(6)
        for g in list(exhaustive_corpus(5)) + [joined45]:
            cfg = PointConfiguration(g)
            for facet in enumerate_all_facets(g):
                indices = rng.sample(
                    facet.point_indices, rng.randint(1, len(facet.point_indices))
                )
                subset = [cfg.points[i] for i in indices]
                edges = [g.edges[i >> 1] for i in indices]
                degree = Counter(v for e in edges for v in e)
                components = component_count(edges)
                props = face_properties(g, subset)
                assert props.dim == fraction_rank(subset) - 1
                assert props.component_count == components
                assert props.independent == (
                    len(edges) == len(degree) - components
                )
                assert props.circuit == (
                    components == 1 and set(degree.values()) == {2}
                )

    @pytest.mark.parametrize(
        "point, message",
        [
            ((1, 1, -1), "not a signed edge vector"),
            ((1,), "has length 1"),
            ((2, 0, 0), "not a signed edge vector"),
            ((0, 0, 0), "not a signed edge vector"),
            # True and 1.0 equal 1, so these would read as edge (1, 2)
            ((True, False, False), "not a signed edge vector"),
            ((1.0, 0, 0), "not a signed edge vector"),
            (5, "point 5 is not a sequence"),
            (None, "point None is not a sequence"),
            ({-1, 0, 1}, "is not a sequence"),
            ("abc", "not a signed edge vector"),
        ],
        ids=[
            "second_plus_one", "too_short", "entry_two", "zero", "bools", "float",
            "int", "none", "set", "str",
        ],
    )
    def test_malformed_point_rejected(self, point, message):
        with pytest.raises(ValidationError, match=message):
            face_properties(complete_graph(4), [point])

    @pytest.mark.parametrize("points", [5, None], ids=["int", "none"])
    def test_non_iterable_points_rejected(self, points):
        with pytest.raises(ValidationError, match=f"points {points} are not iterable"):
            face_properties(complete_graph(4), points)

    def test_facet_of_another_graph_rejected(self):
        # every facet of the path 1-..-5 has the point of (4, 5) or (5, 4),
        # and the path 1-..-4 has no vertex 5
        for facet in enumerate_all_facets(path_graph(5)):
            with pytest.raises(ValidationError, match="not in the graph"):
                face_properties(path_graph(4), facet)

    def test_matches_graph_formulas(self, joined45):
        cfg = PointConfiguration(joined45)
        for facet in enumerate_all_facets(joined45):
            props = face_properties(joined45, facet)
            edges = [cfg.point_edges[i] for i in facet.point_indices]
            assert props.corank == cyclomatic_number(edges, joined45)
            assert props.dim == joined45.vertex_count - props.component_count - 1
            assert props.independent == (props.corank == 0)

    def test_pairwise_intersections_components(self):
        # each component of a face subgraph is maximal bipartite in the
        # subgraph induced on its own vertices
        for g in [cycle_graph(4), cycle_graph(3), n6_sample_graphs()["theta"]]:
            facets = enumerate_all_facets(g)
            for f1, f2 in itertools.combinations(facets, 2):
                common = set(f1.point_indices) & set(f2.point_indices)
                if not common:
                    continue
                cfg = PointConfiguration(g)
                edges = set()
                for idx in common:
                    i, j = cfg.directed_edges[idx]
                    edges.add((i, j) if i < j else (j, i))
                for comp_edges, comp_vertices in _components(edges):
                    induced = [
                        e
                        for e in g.edges
                        if e[0] in comp_vertices and e[1] in comp_vertices
                    ]
                    for extra in set(induced) - comp_edges:
                        assert not is_bipartite_edges(comp_edges | {extra})


def _components(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    out = []
    for start in adj:
        if start in seen:
            continue
        stack, verts = [start], {start}
        seen.add(start)
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    verts.add(w)
                    stack.append(w)
        comp_edges = {e for e in edges if e[0] in verts}
        out.append((comp_edges, verts))
    return out


class TestBalancing:
    def test_all_c4_facets(self):
        g = cycle_graph(4)
        cycles = all_cycles(g)
        assert all(
            balanced_on_all_cycles(cycles, f.directed_edges)
            for f in enumerate_all_facets(g)
        )

    def test_all_joined_cycle_facets(self, joined45):
        cycles = all_cycles(joined45)
        assert all(
            balanced_on_all_cycles(cycles, f.directed_edges)
            for f in enumerate_all_facets(joined45)
        )

    def test_cycle_enumeration(self, joined45):
        cycles = {frozenset(c) for c in all_cycles(joined45)}
        assert cycles == {
            frozenset({1, 2, 3, 4}),
            frozenset({1, 4, 5, 6, 7}),
            frozenset({1, 2, 3, 4, 5, 6, 7}),
        }

    def test_matches_cycle_oracle_on_facets(self):
        checked = 0
        for g in exhaustive_corpus(5):
            cycles = all_cycles(g)
            for facet in enumerate_all_facets(g):
                assert balanced_on_all_cycles(cycles, facet.directed_edges)
                checked += 1
        assert checked > 10_000

    def test_c40_facet(self):
        # alternating 0/1 potentials make every edge of C40 tight
        g = cycle_graph(40)
        cfg = PointConfiguration(g)
        facet = verify_facet(cfg, tuple((v - 1) % 2 for v in range(2, 41)))
        assert len(facet.directed_edges) == 40
        cycles = all_cycles(g)
        assert balanced_on_all_cycles(cycles, facet.directed_edges)
        flipped = ((2, 1),) + facet.directed_edges[1:]
        assert facet.directed_edges[0] == (1, 2)
        assert balanced_on_all_cycles(cycles, flipped) is False

    def test_unbalanced_orientation_rejected(self):
        # orient three of C4's edges forward and one backward around the
        # cycle: the quadruple covers C4 but meets it 3-to-1
        g = cycle_graph(4)
        directed = ((1, 2), (2, 3), (3, 4), (1, 4))
        assert balanced_on_all_cycles(all_cycles(g), directed) is False


class TestSimplicial:
    def test_equivalences(self):
        for g in exhaustive_corpus(5):
            all_corank0 = all(
                c.subgraph.cyclomatic_number() == 0 for c in enumerate_facet_classes(g)
            )
            even = any(len(c) % 2 == 0 for c in all_cycles(g))
            assert all_corank0 == (not has_even_cycle(g))
            assert has_even_cycle(g) == even
