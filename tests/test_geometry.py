"""Configuration points, facet verification, and the brute-force oracle."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from adjpoly import (
    Facet,
    FacetClass,
    Graph,
    InternalInconsistency,
    NotAFacet,
    TooLarge,
    ZeroNormal,
    brute_force_facets,
    enumerate_all_facets,
    enumerate_facet_classes,
    parse_edge_list,
    verify_facet,
)
from adjpoly import geometry, linalg
from adjpoly.cli import CommandResult
from adjpoly.geometry import edge_point, points
from adjpoly.linalg import integer_rank, solve_neg_ones

from conftest import (
    complete_graph,
    component_count,
    connected_spanning,
    cycle_graph,
    cyclomatic_number,
    exhaustive_corpus,
    fraction_rank,
    fraction_solve_neg_ones,
    n6_sample_graphs,
    path_graph,
    random_edges,
    sides,
    spanning_tree_count,
    subgraph_edges,
    tight_edges,
    tight_points,
    two_color,
    unpruned_brute_force_facets,
)


def _even_vertices(normal) -> frozenset:
    """The vertices of even potential, vertex 1 at 0 among them."""
    return frozenset([1] + [v for v, a in enumerate(normal, start=2) if a % 2 == 0])


class TestConfiguration:
    def test_k2(self):
        g = parse_edge_list("1 2")
        assert g.n == 1
        assert points(g) == ((-1,), (1,))

    def test_triangle_hexagon(self):
        g = cycle_graph(3)
        assert set(points(g)) == {
            (-1, 0), (1, 0), (0, -1), (0, 1), (1, -1), (-1, 1),
        }

    def test_c4_eight_points(self):
        g = cycle_graph(4)
        assert g.n == 3
        assert len(points(g)) == 8

    def test_order_pairs_signed(self):
        g = cycle_graph(3)
        encoded = points(g)
        for k in range(g.m):
            assert encoded[2 * k] == tuple(-x for x in encoded[2 * k + 1])

    def test_central_symmetry_everywhere(self):
        for g in exhaustive_corpus(5):
            encoded = set(points(g))
            assert all(tuple(-x for x in p) in encoded for p in encoded)

    def test_points_encode_directed_edges(self):
        for g in exhaustive_corpus(5):
            encoded = points(g)
            assert len(encoded) == len(g.directed_edges) == 2 * g.m
            for i, edge in enumerate(g.directed_edges):
                assert encoded[i] == edge_point(g.n, *edge)

    def test_point_tables(self):
        for g in exhaustive_corpus(5):
            for k, edge in enumerate(g.edges):
                assert g.directed_edges[2 * k] == edge
                assert g.directed_edges[2 * k + 1] == edge[::-1]

    def test_full_dimensional(self):
        for g in exhaustive_corpus(4):
            base, *rest = points(g)
            diffs = [[a - b for a, b in zip(p, base)] for p in rest]
            assert fraction_rank(diffs) == g.n


class TestIntegerRank:
    def test_rank_counts_vertices_minus_components(self):
        # a connected spanning subgraph: rank N - 1; two disjoint edges:
        # 4 vertices - 2 components
        assert integer_rank([(1, 2), (4, 5)]) == 2
        assert integer_rank([(i, i + 1) for i in range(1, 6)]) == 5
        assert integer_rank([(i, i % 6 + 1) for i in range(1, 7)]) == 5
        assert integer_rank([(3, 3), (2, 3), (3, 2)]) == 1  # a loop, a reversal
        assert integer_rank([]) == 0
        # any int is a label: -1 is a vertex, not the last entry of a table
        assert integer_rank([(-1, 2)]) == integer_rank([(3, -1)]) == 1
        assert integer_rank([(-2, -1)]) == 1

    def test_edge_vectors_match_fraction_oracle(self):
        rng = random.Random(63)
        ranks = {"full": 0, "deficient": 0}
        for _ in range(2400):
            cols = rng.randint(1, 10)
            edges = random_edges(rng, rng.randint(1, 12), cols)
            rank = fraction_rank([edge_point(cols, t, h) for t, h in edges])
            assert integer_rank(edges) == rank, edges
            ranks["full" if rank == min(len(edges), cols) else "deficient"] += 1
        assert min(ranks.values()) > 300

    def test_large_label_allocates_no_table(self):
        tracemalloc.start()
        try:
            assert integer_rank([(1, 10**6)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_join_moves_the_smaller_component(self):
        # a path on 1..40, then 40 two-vertex components, each joined to
        # vertex 1: moving the smaller list into the larger hashes each
        # label a few times (438 in all), the larger into the smaller 3,518
        class Label(int):
            calls = 0

            def __hash__(self):
                Label.calls += 1
                return int.__hash__(self)

        edges = [(Label(v), Label(v + 1)) for v in range(1, 40)]
        for a in range(41, 121, 2):
            edges += [(Label(a), Label(a + 1)), (Label(1), Label(a))]
        assert integer_rank(edges) == len(edges) == 119
        assert Label.calls <= 5 * len(edges)

    def test_matches_component_oracle_in_every_merge_order(self):
        # rank = vertices touched - components: every sequence of up to 3
        # directed edges on 0..4 (loops, repeats and reversals included),
        # then longer random sequences, whose later edges land inside
        # components that earlier joins merged
        pairs = list(itertools.product(range(5), repeat=2))
        sequences = [
            list(edges)
            for length in range(4)
            for edges in itertools.product(pairs, repeat=length)
        ]
        rng = random.Random(64)
        for _ in range(3000):
            labels = range(rng.randint(1, 9))
            count = rng.randint(5, 15)
            sequences.append(
                [(rng.choice(labels), rng.choice(labels)) for _ in range(count)]
            )
        for edges in sequences:
            touched = {v for edge in edges for v in edge}
            assert integer_rank(edges) == len(touched) - component_count(edges), edges


class TestSolveNegOnes:
    @pytest.mark.parametrize(
        "edges, expected",
        [
            ([(2, 1)], (-1,)),
            ([(1, 2)], (1,)),
            ([(3, 1), (2, 3)], (-2, -1)),  # a walk through vertex 3
            ([(2, 1), (3, 2), (4, 3)], (-1, -2, -3)),  # a path
            ([(2, 1), (1, 3)], (-1, 1)),  # a star at vertex 1
            ([(2, 1), (3, 3)], None),  # a loop
            ([(2, 3), (2, 3)], None),  # repeated edge
            ([(2, 3), (3, 2)], None),  # reversed edge
            ([(2, 3), (3, 4), (4, 2)], None),  # a cycle off vertex 1
            ([], ()),
        ],
    )
    def test_examples(self, edges, expected):
        assert solve_neg_ones(edges) == expected

    def test_matches_fraction_oracle(self):
        rng = random.Random(62)
        verdicts = {True: 0, False: 0}
        for _ in range(1500):
            n = rng.randint(1, 8)
            edges = random_edges(rng, n, n)
            expected = fraction_solve_neg_ones([edge_point(n, t, h) for t, h in edges])
            solved = solve_neg_ones(edges)
            verdicts[expected is None] += 1
            if expected is None:
                assert solved is None, edges
            else:
                assert all(type(x) is int for x in solved), edges
                assert solved == expected, edges
        assert min(verdicts.values()) > 100

    def test_no_fraction_arithmetic(self):
        assert not hasattr(linalg, "Fraction")


class TestVerifyFacet:
    def test_k2_normal_one(self):
        g = parse_edge_list("1 2")
        facet = verify_facet(g, (1,))
        assert tight_points(g, facet) == ((-1,),)
        assert tight_edges(g, facet) == ((1, 2),)
        assert facet.normal == (1,)
        # the lone edge connects both vertices: dim 2 - 2 = 0, corank 0
        (cls,) = enumerate_facet_classes(g)
        assert facet in cls.facets
        assert cls.subgraph.corank == 0
        assert connected_spanning(tight_edges(g, facet), 2)

    def test_c4_canonical_normal(self):
        # reduced form of the half-vector for V+ = {1,3}: entries a_v - a_1
        g = cycle_graph(4)
        facet = verify_facet(g, (-1, 0, -1))
        assert len(facet.point_indices) == 4
        assert tuple(g.edges[i >> 1] for i in facet.point_indices) == g.edges
        assert _even_vertices(facet.normal) == {1, 3}
        # the tight 4-cycle connects all 4 vertices: dim 4 - 2 = 2, corank 1
        (cls,) = enumerate_facet_classes(g)
        assert facet in cls.facets
        assert cls.subgraph.corank == 1
        assert connected_spanning(tight_edges(g, facet), 4)

    def test_c4_min_set_too_small(self):
        g = cycle_graph(4)
        with pytest.raises(NotAFacet):
            verify_facet(g, (1, 0, 0))

    def test_zero_normal(self):
        g = cycle_graph(4)
        with pytest.raises(ZeroNormal):
            verify_facet(g, (0, 0, 0))

    def test_scaled_normal_reduced_to_primitive(self):
        g = cycle_graph(4)
        facet = verify_facet(g, (-3, 0, -3))
        assert facet.normal == (-1, 0, -1)

    def test_rational_normal_rejected(self):
        g = cycle_graph(4)
        normal = (Fraction(-1, 2), 0, Fraction(-1, 2))
        with pytest.raises(ValueError, match=re.escape(f"normal {normal}")):
            verify_facet(g, normal)

    def test_facet_normal_accepted(self):
        g = cycle_graph(4)
        facet = verify_facet(g, [-1, 0, -1])
        assert facet.normal == (-1, 0, -1)
        assert verify_facet(g, facet.normal) == facet

    @pytest.mark.parametrize("normal", [(True, False), (1, True)])
    def test_bool_normal_rejected(self, normal):
        # both would be facets of C3 if the bools were read as 1 and 0
        g = cycle_graph(3)
        with pytest.raises(ValueError, match=re.escape(f"normal {normal}")):
            verify_facet(g, normal)

    @pytest.mark.parametrize("normal", [None, 5])
    def test_non_iterable_normal_rejected(self, normal):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match=re.escape(f"normal {normal}")):
            verify_facet(g, normal)

    @pytest.mark.parametrize(
        "normal, message",
        [
            (10**5000, "is not a sequence of ints"),
            ((10**5000, "1"), "has an entry that is not an integer"),
        ],
        ids=["not_iterable", "beside_non_int"],
    )
    def test_unprintable_normal_keeps_its_message(self, normal, message):
        # Python raises ValueError rather than print an int of over 4,300 digits
        g = cycle_graph(3)
        with pytest.raises(ValueError, match=message):
            verify_facet(g, normal)

    def test_facet_holds_its_normal_and_point_indices(self):
        assert Facet._fields == ("normal", "point_indices")
        assert FacetClass._fields == ("subgraph", "facets")
        assert CommandResult._fields == ("exit_code", "stdout", "stderr")
        facet = verify_facet(cycle_graph(3), (1, 0))
        assert repr(facet) == "Facet(normal=(1, 0), point_indices=(0, 5))"

    def test_supporting_values_exact(self):
        # reflexivity: the primitive normal itself attains -1, no rescaling
        g = cycle_graph(4)
        facet = verify_facet(g, (-3, 0, -3))
        on_facet = set(facet.point_indices)
        for idx, point in enumerate(points(g)):
            value = sum(c * x for c, x in zip(facet.normal, point))
            if idx in on_facet:
                assert value == -1
            else:
                assert value > -1

    def test_minimum_other_than_minus_one_is_inconsistent(self, monkeypatch):
        # (2, 1, 0) on C4 attains -2, so it is no facet; with the rank
        # check forced to pass, the -1 assertion must catch it
        g = cycle_graph(4)
        monkeypatch.setattr(linalg, "integer_rank", lambda edges: g.n)
        with pytest.raises(InternalInconsistency, match="minimum -2"):
            verify_facet(g, (2, 1, 0))

    def test_parity_bipartition_matches_two_coloring(self, joined45):
        for g in list(exhaustive_corpus(5)) + [joined45]:
            for facet in enumerate_all_facets(g):
                edges = [g.edges[i >> 1] for i in facet.point_indices]
                plus, _ = two_color(edges, g.vertex_count)
                assert _even_vertices(facet.normal) == plus

    def test_integer_normals_skip_fractions(self):
        assert not hasattr(geometry, "Fraction")

    def test_facets_agree_with_their_class(self):
        # a facet holds only its normal and tight points; its subgraph,
        # sides, dim and corank are its class's
        graphs = list(exhaustive_corpus(5)) + list(n6_sample_graphs().values())
        for g in graphs:
            for cls in enumerate_facet_classes(g):
                b = cls.subgraph
                b_edges = subgraph_edges(g, b)
                for f in cls.facets:
                    assert verify_facet(g, f.normal) == f
                    edges = tight_edges(g, f)
                    assert _even_vertices(f.normal) == sides(g, b)[0]
                    assert tuple(g.edges[i >> 1] for i in f.point_indices) == b_edges
                    # connected and spanning, so dim N - 2
                    assert connected_spanning(edges, g.vertex_count)
                    assert b.corank == cyclomatic_number(edges, g)


class TestPrimitive:
    @pytest.mark.parametrize(
        "vector, expected",
        [((-3, 0, 6), (-1, 0, 2)), ((2, -4), (1, -2)), ((0, 5), (0, 1))],
    )
    def test_divides_by_gcd(self, vector, expected):
        assert linalg.primitive(vector) == expected

    def test_gcd_one_list_comes_back_as_tuple(self):
        result = linalg.primitive([3, -2, 0])
        assert result == (3, -2, 0)
        assert type(result) is tuple

    @pytest.mark.parametrize("vector", [(0, 0), ()])
    def test_zero_or_empty_raises(self, vector):
        with pytest.raises(ValueError, match="zero vector"):
            linalg.primitive(vector)


class TestBruteForceOracle:
    def test_k2(self):
        g = parse_edge_list("1 2")
        facets = brute_force_facets(g)
        assert [f.normal for f in facets] == [(-1,), (1,)]

    def test_c4_six_facets(self):
        g = cycle_graph(4)
        assert len(brute_force_facets(g)) == 6

    def test_joined_cycles_108(self, joined45):
        assert len(brute_force_facets(joined45)) == 108

    @pytest.mark.parametrize(
        "g, count",
        [
            pytest.param(cycle_graph(2 * k), math.comb(2 * k, k), id=f"C{2 * k}")
            for k in range(2, 5)
        ]
        + [
            pytest.param(
                cycle_graph(2 * k + 1),
                (2 * k + 1) * math.comb(2 * k, k),
                id=f"C{2 * k + 1}",
            )
            for k in range(1, 5)
        ]
        + [pytest.param(complete_graph(n), 2**n - 2, id=f"K{n}") for n in range(2, 7)]
        + [pytest.param(path_graph(n), 2 ** (n - 1), id=f"P{n}") for n in range(2, 10)]
        + [pytest.param(Graph(9, [(1, v) for v in range(2, 10)]), 2**8, id="K1,8")],
    )
    def test_closed_form_counts(self, g, count):
        assert len(brute_force_facets(g)) == count

    def test_guard_rail(self):
        big = cycle_graph(10)
        with pytest.raises(TooLarge):
            brute_force_facets(big)

    def test_no_duplicate_normals_and_sorted(self):
        for g in exhaustive_corpus(4):
            facets = brute_force_facets(g)
            normals = [f.normal for f in facets]
            assert len(set(normals)) == len(normals)
            assert normals == sorted(normals)

    def test_facets_closed_under_negation(self):
        g = cycle_graph(4)
        facets = brute_force_facets(g)
        normals = {f.normal for f in facets}
        by_normal = {f.normal: f for f in facets}
        for normal, facet in by_normal.items():
            negated = tuple(-c for c in normal)
            assert negated in normals
            mirror = by_normal[negated]
            assert {
                tuple(-x for x in p) for p in tight_points(g, facet)
            } == set(tight_points(g, mirror))

    def test_every_oracle_facet_reverifies(self):
        g = cycle_graph(4)
        for facet in brute_force_facets(g):
            again = verify_facet(g, facet.normal)
            assert again.point_indices == facet.point_indices

    def test_rank_skip_matches_unpruned_loop(self, monkeypatch):
        solves = 0
        solve = linalg.solve_neg_ones

        def counted(edges):
            nonlocal solves
            solves += 1
            return solve(edges)

        monkeypatch.setattr(linalg, "solve_neg_ones", counted)
        for g in list(exhaustive_corpus(5)) + list(n6_sample_graphs().values()):
            solves = 0
            facets = brute_force_facets(g)
            # only the spanning trees are independent n-edge sets, and
            # each is solved once for all its 2^n orientations
            assert solves == spanning_tree_count(g), g.edges
            assert facets == unpruned_brute_force_facets(g), g.edges

    def test_orientation_walk_matches_fresh_solves(self):
        for g in list(exhaustive_corpus(4)) + list(n6_sample_graphs().values()):
            for tree in itertools.combinations(g.edges, g.n):
                if integer_rank(tree) < g.n:
                    continue
                masks = []
                for mask, pot in geometry._orientation_walk(tree):
                    masks.append(mask)
                    oriented = [
                        (j, i) if mask >> k & 1 else (i, j)
                        for k, (i, j) in enumerate(tree)
                    ]
                    assert pot[:2] == [0, 0], (tree, mask)
                    assert tuple(pot[2:]) == solve_neg_ones(oriented), (tree, mask)
                assert sorted(masks) == list(range(2**g.n)), tree
