"""Sign-vector facet enumeration, face properties, balancing, simpliciality."""

import dataclasses
import itertools
import random

import pytest

from adjpoly import (
    CycleConstraintSystem,
    CycleVector,
    EmptySubset,
    Facet,
    InnerNormal,
    TooLarge,
    ValidationError,
    balancing_check,
    brute_force_facets,
    build_cycle_system,
    configuration_from_graph,
    cyclomatic_number,
    enumerate_all_facets,
    enumerate_facet_classes,
    enumerate_maximal_bipartite_subgraphs,
    enumerate_sign_vectors,
    face_properties,
    has_even_cycle,
    is_simplicial,
    parse_edge_list,
    spanning_tree,
    verify_facet,
)
from adjpoly.counting import cycle_graph
from adjpoly.geometry import edge_point
from adjpoly.linalg import integer_rank

from conftest import (
    all_cycles,
    balanced_on_all_cycles,
    exhaustive_corpus,
    is_bipartite_edges,
    n6_sample_graphs,
    path_graph,
    random_connected_graph,
)


def _subgraph_by_edges(g, edges):
    target = frozenset(edges)
    matches = [
        b
        for b in enumerate_maximal_bipartite_subgraphs(g)
        if frozenset(b.edges) == target
    ]
    assert len(matches) == 1
    return matches[0]


def _class_of(g, b):
    (cls,) = [c for c in enumerate_facet_classes(g) if c.subgraph == b]
    return cls


def _dot(row, d):
    return sum(c * x for c, x in zip(row.coeffs, d))


def _scan_sign_vectors(sys):
    """Oracle: every sign vector, kept if it solves every row exactly."""
    return [
        d
        for d in itertools.product((-1, 1), repeat=len(sys.tree.edges))
        if all(_dot(r, d) in (-1, 1) for r in sys.rows_pm)
        and all(_dot(r, d) == 0 for r in sys.rows_zero)
    ]


class TestSignOrderEnds:
    """A class starts with the facet of the all-(-1) sign vector, every
    crossing edge oriented plus -> minus, and ends with the all-(+1) one,
    oriented minus -> plus."""

    def test_k2(self):
        g = parse_edge_list("1 2")
        (cls,) = enumerate_facet_classes(g)
        cfg = configuration_from_graph(g)
        ends = {cls.facets[0].points(cfg), cls.facets[-1].points(cfg)}
        assert ends == {((1,),), ((-1,),)}

    def test_c4_half_vector_normals(self):
        (cls,) = enumerate_facet_classes(cycle_graph(4))
        assert cls.facets[-1].normal.coeffs == (-1, 0, -1)
        assert cls.facets[0].normal.coeffs == (1, 0, 1)
        assert len(cls.facets[-1].point_indices) == 4

    def test_triangle_path_subgraph(self):
        g = cycle_graph(3)
        cls = _class_of(g, _subgraph_by_edges(g, [(1, 2), (2, 3)]))
        cfg = configuration_from_graph(g)
        # crossing edges oriented into V+ = {1, 3}: points (2,1) and (2,3)
        assert set(cls.facets[-1].points(cfg)) == {(1, 0), (1, -1)}
        assert set(cls.facets[0].points(cfg)) == {(-1, 0), (-1, 1)}

    def test_ends_of_every_class(self, joined45):
        for g in list(exhaustive_corpus(5)) + [joined45]:
            for cls in enumerate_facet_classes(g):
                ds = enumerate_sign_vectors(build_cycle_system(g, cls.subgraph))
                assert ds[0] == (-1,) * g.n and ds[-1] == (1,) * g.n
                side = cls.subgraph.bipartition.side
                first, last = cls.facets[0], cls.facets[-1]
                assert all(side(t) == 1 == -side(h) for t, h in first.directed_edges)
                assert all(side(t) == -1 == -side(h) for t, h in last.directed_edges)
                assert first.normal.coeffs == tuple(-c for c in last.normal.coeffs)


class TestCycleSystem:
    def test_c4_single_pm_row(self):
        g = cycle_graph(4)
        b = enumerate_maximal_bipartite_subgraphs(g)[0]
        sys = build_cycle_system(g, b)
        assert len(sys.rows_pm) == 1
        assert len(sys.rows_zero) == 0
        assert sorted(sys.rows_pm[0].coeffs) == [-1, 1, 1]

    def test_joined_cycles_tree_class(self, joined45):
        # spanning-tree subgraph: two zero rows, no pm rows
        b = _subgraph_by_edges(
            joined45, set(joined45.edges) - {(1, 2), (1, 4)}
        )
        sys = build_cycle_system(joined45, b)
        assert len(sys.rows_pm) == 0
        assert len(sys.rows_zero) == 2
        supports = sorted(sum(1 for c in r.coeffs if c) for r in sys.rows_zero)
        assert supports == [4, 6]

    def test_joined_cycles_corank1_class(self, joined45):
        # 4-cycle plus path subgraph: one pm row, one zero row
        b = _subgraph_by_edges(joined45, set(joined45.edges) - {(1, 7)})
        sys = build_cycle_system(joined45, b)
        assert len(sys.rows_pm) == 1
        assert len(sys.rows_zero) == 1
        assert sum(1 for c in sys.rows_pm[0].coeffs if c) == 3
        assert sum(1 for c in sys.rows_zero[0].coeffs if c) == 4

    def test_row_counts_everywhere(self):
        for g in exhaustive_corpus(5):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                sys = build_cycle_system(g, b)
                assert len(sys.rows_pm) == b.cyclomatic_number()
                assert len(sys.rows_pm) + len(sys.rows_zero) == g.m - g.n


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
        sys = build_cycle_system(g, b)
        assert len(sys.rows_zero) == 1
        assert len(enumerate_sign_vectors(sys)) == 2

    def test_matches_exhaustive_scan(self):
        graphs = list(exhaustive_corpus(4))
        graphs += [g for g in exhaustive_corpus(5) if g.vertex_count == 5][::13]
        for g in graphs:
            for b in enumerate_maximal_bipartite_subgraphs(g):
                sys = build_cycle_system(g, b)
                assert enumerate_sign_vectors(sys) == _scan_sign_vectors(sys)

    def test_hand_built_systems_exact(self):
        # a +-1 row with even support has an even value, so it can close
        # at 0 and never reaches its target; every leaf must still be exact
        tree = spanning_tree(enumerate_maximal_bipartite_subgraphs(path_graph(5))[0])
        even_pm = CycleVector(non_tree_edge=(1, 3), coeffs=(1, -1, 0, 0))
        odd_pm = CycleVector(non_tree_edge=(1, 4), coeffs=(1, 1, -1, 0))
        zero = CycleVector(non_tree_edge=(2, 5), coeffs=(0, 1, 1, 0))
        empty_pm = CycleVector(non_tree_edge=(1, 5), coeffs=(0, 0, 0, 0))
        cases = [
            ((even_pm,), ()),
            ((even_pm,), (zero,)),
            ((odd_pm,), (zero,)),
            ((odd_pm, even_pm), ()),
            ((empty_pm,), ()),
        ]
        for rows_pm, rows_zero in cases:
            sys = CycleConstraintSystem(tree=tree, rows_pm=rows_pm, rows_zero=rows_zero)
            solutions = enumerate_sign_vectors(sys)
            assert solutions == _scan_sign_vectors(sys)
            assert (solutions == []) == (even_pm in rows_pm or empty_pm in rows_pm)

    def test_guard_on_huge_tree(self):
        # 20,000 tree edges: 2^n has more decimal digits than int -> str
        # allows, so the guard must refuse without printing it
        tree = spanning_tree(enumerate_maximal_bipartite_subgraphs(path_graph(3))[0])
        huge = dataclasses.replace(
            tree, edges=tuple((i, i + 1) for i in range(1, 20001))
        )
        sys = CycleConstraintSystem(tree=huge, rows_pm=(), rows_zero=())
        with pytest.raises(TooLarge, match=r"n = 20000 > 30 .* up to 2\^20000 sign"):
            enumerate_sign_vectors(sys)

    def test_binary_order(self):
        g = cycle_graph(4)
        b = enumerate_maximal_bipartite_subgraphs(g)[0]
        solutions = enumerate_sign_vectors(build_cycle_system(g, b))
        keys = [tuple(0 if x == -1 else 1 for x in d) for d in solutions]
        assert keys == sorted(keys)


class TestFacetFromSignVector:
    def test_c4_bijection_with_oracle(self):
        g = cycle_graph(4)
        (cls,) = enumerate_facet_classes(g)
        ds = enumerate_sign_vectors(build_cycle_system(g, cls.subgraph))
        fast = {f.normal.coeffs for f in cls.facets}
        oracle = {
            f.normal.coeffs
            for f in brute_force_facets(configuration_from_graph(g))
        }
        assert len(ds) == len(fast) == 6
        assert fast == oracle

    def test_joined_cycles_corank1_shape(self, joined45):
        b = _subgraph_by_edges(joined45, set(joined45.edges) - {(1, 7)})
        facets = _class_of(joined45, b).facets
        assert len(facets) == 18
        for facet in facets:
            # one point per edge of the 7-edge subgraph
            assert len(facet.point_indices) == 7
            assert facet.dim == 5
            assert facet.corank == 1

    def test_signed_tree_points_lie_on_facet(self, joined45):
        for g in (cycle_graph(4), joined45):
            for cls in enumerate_facet_classes(g):
                system = build_cycle_system(g, cls.subgraph)
                ds = enumerate_sign_vectors(system)
                assert len(ds) == len(cls.facets)
                for d, facet in zip(ds, cls.facets):
                    for dk, oriented in zip(d, system.tree.oriented):
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
            fast = {f.normal.coeffs for f in enumerate_all_facets(g)}
            oracle = {
                f.normal.coeffs
                for f in brute_force_facets(configuration_from_graph(g))
            }
            assert fast == oracle, g.edges

    def test_classes_partition_oracle_by_subgraph(self, joined45):
        oracle = brute_force_facets(configuration_from_graph(joined45))
        by_subgraph = {}
        for f in oracle:
            by_subgraph.setdefault(f.subgraph_edges, set()).add(f.normal.coeffs)
        for cls in enumerate_facet_classes(joined45):
            assert {
                f.normal.coeffs for f in cls.facets
            } == by_subgraph[cls.subgraph.edges]

    def test_globally_duplicate_free(self, joined45):
        facets = enumerate_all_facets(joined45)
        normals = [f.normal.coeffs for f in facets]
        assert len(set(normals)) == len(normals)

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

    def test_tree_facet_independent(self, joined45):
        tree_cls = [
            c for c in enumerate_facet_classes(joined45) if c.corank == 0
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
        cfg = configuration_from_graph(g)
        with pytest.raises(ValidationError, match=r"edge \(1, 2\)"):
            face_properties(g, [cfg.points[0], cfg.points[1]])

    def test_repeated_point_rejected(self):
        g = cycle_graph(4)
        cfg = configuration_from_graph(g)
        with pytest.raises(ValidationError, match="repeated"):
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
            cfg = configuration_from_graph(g)
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
        # affine dimension is their rank minus one
        rng = random.Random(6)
        sample = n6_sample_graphs()
        for g in (cycle_graph(5), joined45, sample["k33"], sample["wheel"]):
            cfg = configuration_from_graph(g)
            for facet in enumerate_all_facets(g):
                points = facet.points(cfg)
                subset = rng.sample(points, rng.randint(1, len(points)))
                assert face_properties(g, subset).dim == integer_rank(subset) - 1

    def test_matches_graph_formulas(self, joined45):
        for facet in enumerate_all_facets(joined45):
            props = face_properties(joined45, facet)
            assert props.corank == cyclomatic_number(
                facet.subgraph_edges, joined45
            )
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
                cfg = configuration_from_graph(g)
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
        assert all(balancing_check(g, f) for f in enumerate_all_facets(g))

    def test_all_joined_cycle_facets(self, joined45):
        assert all(
            balancing_check(joined45, f) for f in enumerate_all_facets(joined45)
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
                assert balancing_check(g, facet)
                checked += 1
        assert checked > 10_000

    def test_matches_cycle_oracle_on_random_edge_sets(self):
        rng = random.Random(2024)
        graphs = list(exhaustive_corpus(4)) + [
            random_connected_graph(rng.randint(4, 8), rng.uniform(0.2, 0.8), rng)
            for _ in range(60)
        ]
        verdicts = {True: 0, False: 0}
        for g in graphs:
            cycles = all_cycles(g)
            template = enumerate_all_facets(g)[0]
            for _ in range(8):
                if rng.random() < 0.5:
                    # tight edges of 0/1 potentials, oriented upward: balanced
                    pot = {v: rng.randint(0, 1) for v in g.vertices()}
                    directed = [
                        (u, v) if pot[v] > pot[u] else (v, u)
                        for u, v in g.edges
                        if pot[u] != pot[v]
                    ]
                else:
                    directed = [
                        (u, v) if rng.random() < 0.5 else (v, u)
                        for u, v in g.edges
                        if rng.random() < 0.7
                    ]
                fake = dataclasses.replace(template, directed_edges=tuple(directed))
                expected = balanced_on_all_cycles(cycles, directed)
                assert balancing_check(g, fake) == expected, (g.edges, directed)
                verdicts[expected] += 1
        assert min(verdicts.values()) > 100

    def test_c40_facet(self):
        # alternating 0/1 potentials make every edge of C40 tight
        g = cycle_graph(40)
        cfg = configuration_from_graph(g)
        facet = verify_facet(cfg, tuple((v - 1) % 2 for v in range(2, 41)))
        assert len(facet.directed_edges) == 40
        assert balancing_check(g, facet)
        flipped = ((2, 1),) + facet.directed_edges[1:]
        assert facet.directed_edges[0] == (1, 2)
        assert not balancing_check(
            g, dataclasses.replace(facet, directed_edges=flipped)
        )

    def test_unbalanced_orientation_rejected(self):
        # orient three of C4's edges forward and one backward around the
        # cycle: the quadruple covers C4 but meets it 3-to-1
        g = cycle_graph(4)
        template = enumerate_all_facets(g)[0]
        bad = Facet(
            normal=InnerNormal(coeffs=(1, 1, 1)),
            point_indices=template.point_indices,
            subgraph_edges=template.subgraph_edges,
            directed_edges=((1, 2), (2, 3), (3, 4), (1, 4)),
            dim=template.dim,
            corank=template.corank,
            bipartition=template.bipartition,
        )
        assert balancing_check(g, bad) is False


class TestSimplicial:
    def test_examples(self, joined45):
        assert is_simplicial(cycle_graph(3)) is True
        assert is_simplicial(cycle_graph(4)) is False
        assert is_simplicial(joined45) is False

    def test_equivalences(self):
        for g in exhaustive_corpus(5):
            facets = enumerate_all_facets(g)
            all_corank0 = all(f.corank == 0 for f in facets)
            even = any(len(c) % 2 == 0 for c in all_cycles(g))
            assert is_simplicial(g) == all_corank0 == (not has_even_cycle(g))
            assert has_even_cycle(g) == even
