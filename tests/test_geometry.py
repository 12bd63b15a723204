"""Point configurations, facet verification, and the brute-force oracle."""

import math
import random
import re
from fractions import Fraction

import pytest

from adjpoly import (
    Graph,
    InnerNormal,
    InternalInconsistency,
    NotAFacet,
    TooLarge,
    ZeroNormal,
    brute_force_facets,
    configuration_from_graph,
    enumerate_all_facets,
    parse_edge_list,
    verify_facet,
)
from adjpoly import geometry, linalg
from adjpoly.counting import cycle_graph
from adjpoly.geometry import edge_point
from adjpoly.linalg import edge_ends, integer_rank, solve_neg_ones

from conftest import (
    complete_graph,
    exhaustive_corpus,
    fraction_rank,
    fraction_solve_neg_ones,
    n6_sample_graphs,
    path_graph,
    random_edge_vectors,
    random_integer_matrix,
    spanning_tree_count,
    two_color,
    unpruned_brute_force_facets,
)


def _is_edge_vector(row) -> bool:
    """Zero, a lone +-1, or one +1 and one -1."""
    return sorted(x for x in row if x) in ([], [1], [-1], [-1, 1])


class TestConfiguration:
    def test_k2(self):
        cfg = configuration_from_graph(parse_edge_list("1 2"))
        assert cfg.dim == 1
        assert cfg.points == ((-1,), (1,))

    def test_triangle_hexagon(self):
        cfg = configuration_from_graph(cycle_graph(3))
        assert set(cfg.points) == {
            (-1, 0), (1, 0), (0, -1), (0, 1), (1, -1), (-1, 1),
        }

    def test_c4_eight_points(self):
        cfg = configuration_from_graph(cycle_graph(4))
        assert cfg.dim == 3
        assert len(cfg.points) == 8

    def test_order_pairs_signed(self):
        cfg = configuration_from_graph(cycle_graph(3))
        for k in range(cfg.graph.m):
            assert cfg.points[2 * k] == tuple(-x for x in cfg.points[2 * k + 1])
            i, j = cfg.graph.edges[k]
            assert cfg.directed_edges[2 * k] == (i, j)
            assert cfg.directed_edges[2 * k + 1] == (j, i)

    def test_central_symmetry_everywhere(self):
        for g in exhaustive_corpus(5):
            cfg = configuration_from_graph(g)
            points = set(cfg.points)
            assert all(tuple(-x for x in p) in points for p in points)

    def test_point_edge_round_trip(self):
        for g in exhaustive_corpus(4):
            cfg = configuration_from_graph(g)
            for point, (t, h) in zip(cfg.points, cfg.directed_edges):
                assert edge_ends(point) == (t - 1, h - 1)
                assert edge_point(cfg.dim, t, h) == point

    def test_full_dimensional(self):
        for g in exhaustive_corpus(4):
            cfg = configuration_from_graph(g)
            base = cfg.points[0]
            diffs = [[a - b for a, b in zip(p, base)] for p in cfg.points[1:]]
            assert fraction_rank(diffs) == cfg.dim


class TestIntegerRank:
    def test_rank_counts_vertices_minus_components(self):
        # edge points of a connected spanning subgraph: rank N - 1; of two
        # disjoint edges: 4 vertices - 2 components
        assert integer_rank([edge_point(5, 1, 2), edge_point(5, 4, 5)]) == 2
        assert integer_rank([edge_point(5, i, i + 1) for i in range(1, 6)]) == 5
        cycle = [edge_point(5, i, i % 6 + 1) for i in range(1, 7)]
        assert integer_rank(cycle) == 5

    def test_non_edge_matrices_raise(self):
        rng = random.Random(61)
        raised = 0
        for _ in range(1500):
            matrix = random_integer_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            if all(_is_edge_vector(row) for row in matrix):
                assert integer_rank(matrix) == fraction_rank(matrix), matrix
            else:
                with pytest.raises(ValueError, match="not a signed edge vector"):
                    integer_rank(matrix)
                raised += 1
        assert raised > 1000

    def test_edge_vectors_match_fraction_oracle(self):
        rng = random.Random(63)
        ranks = {"full": 0, "deficient": 0}
        for _ in range(2400):
            cols = rng.randint(1, 10)
            matrix = random_edge_vectors(rng, rng.randint(1, 12), cols)
            rank = fraction_rank(matrix)
            assert integer_rank(matrix) == rank, matrix
            ranks["full" if rank == min(len(matrix), cols) else "deficient"] += 1
        assert min(ranks.values()) > 300

    @pytest.mark.parametrize(
        "rows",
        [
            [(2, 0), (1, -1)],  # an entry 2
            [(1, 1), (1, -1)],  # two +1
            [(-1, -1), (1, -1)],  # two -1
            [(1, -1, 1), (1, 0, 0), (0, 1, 0)],  # three nonzeros
            [(1, -1, 0), (0, 1, -1), (1, 1, 1)],  # a good row, then a bad one
            [(1, -1, 0), (0, 0, 0), (-1, 2, -1)],
        ],
    )
    def test_near_misses_raise(self, rows):
        bad = next(row for row in rows if not _is_edge_vector(row))
        with pytest.raises(ValueError, match=re.escape(f"row {bad} is not")):
            integer_rank(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, -1), (0, 0, 1)],  # a longer row after the first
            [(1,), (0, 1)],
            [(0, 0), (0, 0, 1, -1)],  # a zero first row
        ],
    )
    def test_ragged_rows_raise(self, rows):
        with pytest.raises(ValueError, match=re.escape(f"row {rows[1]} has length")):
            integer_rank(rows)


class TestSolveNegOnes:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[1]], (-1,)),
            ([[-1]], (1,)),
            ([[0, 1], [1, -1]], (-2, -1)),  # a walk through node 2
            ([[1, 0, 0], [-1, 1, 0], [0, -1, 1]], (-1, -2, -3)),  # a path
            ([[1, 0], [0, -1]], (-1, 1)),  # a star at node 0
            ([[1, 0], [0, 0]], None),  # zero row
            ([[1, -1], [1, -1]], None),  # repeated row
            ([[1, -1], [-1, 1]], None),  # negated row
            ([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], None),  # a cycle off node 0
            ([], ()),
        ],
    )
    def test_examples(self, rows, expected):
        assert solve_neg_ones(rows) == expected

    def test_matches_fraction_oracle(self):
        rng = random.Random(62)
        verdicts = {True: 0, False: 0}
        for _ in range(1500):
            n = rng.randint(1, 8)
            matrix = random_edge_vectors(rng, n, n)
            expected = fraction_solve_neg_ones(matrix)
            solved = solve_neg_ones(matrix)
            verdicts[expected is None] += 1
            if expected is None:
                assert solved is None, matrix
            else:
                assert all(type(x) is int for x in solved), matrix
                assert solved == expected, matrix
        assert min(verdicts.values()) > 100

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[2]], "not a signed edge vector"),
            ([[1, 1], [0, 1]], "not a signed edge vector"),
            ([[1, -1], [1, 0, -1]], "has length 3, expected 2"),
            ([[1, 0]], "has length 2, expected 1"),  # not square
            ([[1], [-1]], "has length 1, expected 2"),
        ],
    )
    def test_non_edge_or_non_square_raise(self, rows, message):
        with pytest.raises(ValueError, match=message):
            solve_neg_ones(rows)

    def test_no_fraction_arithmetic(self):
        assert not hasattr(linalg, "Fraction")


class TestVerifyFacet:
    def test_k2_normal_one(self):
        cfg = configuration_from_graph(parse_edge_list("1 2"))
        facet = verify_facet(cfg, (1,))
        assert facet.points(cfg) == ((-1,),)
        assert facet.dim == 0
        assert facet.corank == 0
        assert facet.normal == InnerNormal(coeffs=(1,))

    def test_c4_canonical_normal(self):
        # reduced form of the half-vector for V+ = {1,3}: entries a_v - a_1
        cfg = configuration_from_graph(cycle_graph(4))
        facet = verify_facet(cfg, (-1, 0, -1))
        assert len(facet.point_indices) == 4
        assert facet.dim == 2
        assert facet.corank == 1
        assert facet.subgraph_edges == cycle_graph(4).edges
        assert sorted(facet.bipartition.plus) == [1, 3]

    def test_c4_min_set_too_small(self):
        cfg = configuration_from_graph(cycle_graph(4))
        with pytest.raises(NotAFacet):
            verify_facet(cfg, (1, 0, 0))

    def test_zero_normal(self):
        cfg = configuration_from_graph(cycle_graph(4))
        with pytest.raises(ZeroNormal):
            verify_facet(cfg, (0, 0, 0))

    def test_scaled_normal_reduced_to_primitive(self):
        cfg = configuration_from_graph(cycle_graph(4))
        facet = verify_facet(cfg, (-3, 0, -3))
        assert facet.normal.coeffs == (-1, 0, -1)

    def test_rational_normal_accepted(self):
        cfg = configuration_from_graph(cycle_graph(4))
        facet = verify_facet(cfg, (Fraction(-1, 2), 0, Fraction(-1, 2)))
        assert facet.normal.coeffs == (-1, 0, -1)

    def test_inner_normal_instance_accepted(self):
        cfg = configuration_from_graph(cycle_graph(4))
        facet = verify_facet(cfg, (-1, 0, -1))
        assert verify_facet(cfg, facet.normal) == facet

    def test_supporting_values_exact(self):
        # reflexivity: the primitive normal itself attains -1, no rescaling
        cfg = configuration_from_graph(cycle_graph(4))
        facet = verify_facet(cfg, (-3, 0, -3))
        on_facet = set(facet.point_indices)
        for idx, point in enumerate(cfg.points):
            value = sum(c * x for c, x in zip(facet.normal.coeffs, point))
            if idx in on_facet:
                assert value == -1
            else:
                assert value > -1

    def test_minimum_other_than_minus_one_is_inconsistent(self, monkeypatch):
        # (2, 1, 0) on C4 attains -2, so it is no facet; with the rank
        # check forced to pass, the -1 assertion must catch it
        cfg = configuration_from_graph(cycle_graph(4))
        monkeypatch.setattr(linalg, "integer_rank", lambda rows: cfg.dim)
        with pytest.raises(InternalInconsistency, match="minimum -2"):
            verify_facet(cfg, (2, 1, 0))

    def test_parity_bipartition_matches_two_coloring(self, joined45):
        for g in list(exhaustive_corpus(5)) + [joined45]:
            for facet in enumerate_all_facets(g):
                assert facet.bipartition == two_color(
                    facet.subgraph_edges, g.vertex_count
                )

    def test_integer_normals_skip_fractions(self, monkeypatch, joined45):
        def no_fractions(*args):
            raise AssertionError("Fraction used for an integer normal")

        monkeypatch.setattr(geometry, "Fraction", no_fractions)
        for g in [cycle_graph(4), joined45]:
            cfg = configuration_from_graph(g)
            facets = enumerate_all_facets(g)
            assert len(facets) == len(brute_force_facets(cfg))
            for facet in facets:
                assert verify_facet(cfg, facet.normal.coeffs) == facet


class TestBruteForceOracle:
    def test_k2(self):
        cfg = configuration_from_graph(parse_edge_list("1 2"))
        facets = brute_force_facets(cfg)
        assert [f.normal.coeffs for f in facets] == [(-1,), (1,)]

    def test_c4_six_facets(self):
        cfg = configuration_from_graph(cycle_graph(4))
        assert len(brute_force_facets(cfg)) == 6

    def test_joined_cycles_108(self, joined45):
        cfg = configuration_from_graph(joined45)
        assert len(brute_force_facets(cfg)) == 108

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
        assert len(brute_force_facets(configuration_from_graph(g))) == count

    def test_guard_rail(self):
        big = cycle_graph(10)
        with pytest.raises(TooLarge):
            brute_force_facets(configuration_from_graph(big))

    def test_no_duplicate_normals_and_sorted(self):
        for g in exhaustive_corpus(4):
            facets = brute_force_facets(configuration_from_graph(g))
            normals = [f.normal.coeffs for f in facets]
            assert len(set(normals)) == len(normals)
            assert normals == sorted(normals)

    def test_facets_closed_under_negation(self):
        cfg = configuration_from_graph(cycle_graph(4))
        facets = brute_force_facets(cfg)
        normals = {f.normal.coeffs for f in facets}
        by_normal = {f.normal.coeffs: f for f in facets}
        for normal, facet in by_normal.items():
            negated = tuple(-c for c in normal)
            assert negated in normals
            mirror = by_normal[negated]
            assert {
                tuple(-x for x in p) for p in facet.points(cfg)
            } == set(mirror.points(cfg))

    def test_every_oracle_facet_reverifies(self):
        cfg = configuration_from_graph(cycle_graph(4))
        for facet in brute_force_facets(cfg):
            again = verify_facet(cfg, facet.normal.coeffs)
            assert again.point_indices == facet.point_indices

    def test_rank_skip_matches_unpruned_loop(self, monkeypatch):
        solves = 0
        solve = linalg.solve_neg_ones

        def counted(rows):
            nonlocal solves
            solves += 1
            return solve(rows)

        monkeypatch.setattr(linalg, "solve_neg_ones", counted)
        for g in list(exhaustive_corpus(5)) + list(n6_sample_graphs().values()):
            cfg = configuration_from_graph(g)
            solves = 0
            facets = brute_force_facets(cfg)
            # only the spanning trees are independent n-edge sets
            assert solves == 2**g.n * spanning_tree_count(g), g.edges
            assert facets == unpruned_brute_force_facets(cfg), g.edges
