"""Solver support exports: unmixed support, lifts, subsystems, homogenization."""

import dataclasses
from fractions import Fraction

import pytest

from adjpoly import (
    DomainError,
    InternalInconsistency,
    enumerate_all_facets,
    enumerate_facet_classes,
    facet_subsystem_support,
    homogenization_data,
    homotopy_lift,
    parse_edge_list,
    unmixed_support,
)
from adjpoly import geometry, kuramoto
from adjpoly.kuramoto import (
    homogenization_file_text,
    seeded_coefficients,
    support_file_text,
)

from conftest import cycle_graph, tight_points


K2 = parse_edge_list("1 2")


class TestUnmixedSupport:
    def test_k2(self):
        assert unmixed_support(K2) == ((-1,), (0,), (1,))

    def test_triangle_hexagon_plus_origin(self):
        s = unmixed_support(cycle_graph(3))
        assert len(s) == 7
        assert (0, 0) in s

    def test_joined_4_5_has_17(self, joined45):
        assert len(unmixed_support(joined45)) == 17

    def test_sorted_lexicographically(self, joined45):
        vectors = unmixed_support(joined45)
        assert list(vectors) == sorted(vectors)


class TestHomotopyLift:
    def test_k2_lifts(self):
        assert homotopy_lift(unmixed_support(K2)) == [1, 0, 1]

    def test_zero_exactly_once(self, joined45):
        support = unmixed_support(joined45)
        lifts = homotopy_lift(support)
        assert len(lifts) == len(support)
        assert lifts.count(0) == 1
        for vector, lift in zip(support, lifts):
            assert lift == (0 if not any(vector) else 1)


class TestFacetSubsystemSupport:
    def test_k2_facet(self):
        facet = enumerate_all_facets(K2)[0]
        support = facet_subsystem_support(K2, facet)
        assert support == tuple(sorted({tight_points(K2, facet)[0], (0,)}))

    def test_c4_canonical(self):
        g = cycle_graph(4)
        facet = [f for f in enumerate_all_facets(g) if f.normal == (-1, 0, -1)][0]
        support = facet_subsystem_support(g, facet)
        assert support == tuple(sorted(set(tight_points(g, facet)) | {(0, 0, 0)}))
        assert len(support) == 5

    def test_joined_4_5_corank1_has_8(self, joined45):
        (cls, *_) = [
            c
            for c in enumerate_facet_classes(joined45)
            if c.subgraph.corank == 1
        ]
        facet = cls.facets[0]
        # 7 facet points (one per subgraph edge) plus the origin
        assert len(facet_subsystem_support(joined45, facet)) == 8

    def test_strip_origin_gives_facet_points(self, joined45):
        for facet in enumerate_all_facets(joined45)[:10]:
            subsystem = facet_subsystem_support(joined45, facet)
            origin = (0,) * joined45.n
            assert list(subsystem) == sorted(subsystem)
            assert subsystem.count(origin) == 1
            assert set(subsystem) - {origin} == set(tight_points(joined45, facet))


def _dot(row, point):
    return sum(r * x for r, x in zip(row, point))


class TestHomogenization:
    def test_k2(self):
        rows = homogenization_data(K2)
        assert rows == ((1,), (-1,))
        assert homogenization_file_text(rows, 1).splitlines()[-1] == "-1 -1"

    def test_c4_all_minima_minus_one(self):
        g = cycle_graph(4)
        rows = homogenization_data(g)
        assert len(rows) == 6
        assert all(len(row) == 3 for row in rows)
        points = geometry.points(g)
        assert [min(_dot(row, p) for p in points) for row in rows] == [-1] * 6

    def test_rows_follow_enumeration_order(self, joined45):
        rows = homogenization_data(joined45)
        normals = tuple(f.normal for f in enumerate_all_facets(joined45))
        assert rows == normals

    @pytest.mark.parametrize("maker", [lambda: cycle_graph(4), None])
    def test_lift_soundness(self, maker, joined45):
        # V.a - h with h = -1: >= 0, a zero for every point, > 0 at the origin
        g = maker() if maker else joined45
        rows = homogenization_data(g)
        for vector in unmixed_support(g):
            lifted = [_dot(row, vector) + 1 for row in rows]
            assert min(lifted) >= 0
            if any(vector):
                assert 0 in lifted
            else:
                assert min(lifted) > 0

    @pytest.mark.parametrize("index", [0, 5, 107])
    def test_non_facet_row_rejected(self, monkeypatch, joined45, index):
        # twice a facet normal attains -2 on that facet's points
        facets = enumerate_all_facets(joined45)
        doubled = tuple(2 * c for c in facets[index].normal)
        facets[index] = dataclasses.replace(facets[index], normal=doubled)
        monkeypatch.setattr(kuramoto, "enumerate_all_facets", lambda g: facets)
        with pytest.raises(InternalInconsistency, match="does not sit on any facet"):
            homogenization_data(joined45)

    def test_joined_4_5_shape(self, joined45):
        rows = homogenization_data(joined45)
        assert len(rows) == 108
        assert all(len(row) == 6 for row in rows)


class TestFileFormats:
    def test_support_lines(self):
        s = unmixed_support(K2)
        text = support_file_text(s, lifts=homotopy_lift(s))
        assert text == "-1 1\n0 0\n1 1\n"

    def test_support_plain(self):
        assert support_file_text(unmixed_support(K2)) == "-1\n0\n1\n"

    def test_homogenization_file(self):
        rows = homogenization_data(K2)
        assert homogenization_file_text(rows, 1) == "2 1\n1\n-1\n-1 -1\n"

    def test_coefficient_column(self):
        s = unmixed_support(K2)
        coeffs = seeded_coefficients(len(s), 7)
        text = support_file_text(s, coefficients=coeffs)
        assert len(text.splitlines()) == 3
        assert text == support_file_text(s, coefficients=seeded_coefficients(len(s), 7))
        assert text != support_file_text(s, coefficients=seeded_coefficients(len(s), 8))

    def test_seeded_coefficients_are_nonzero_rationals(self):
        for c in seeded_coefficients(50, 123):
            assert isinstance(c, Fraction)
            assert c != 0

    @pytest.mark.parametrize("seed", [-7, -1, 1 << 64])
    def test_seed_outside_u64_rejected(self, seed):
        # random.Random seeds with |seed|, so -7 would repeat seed 7's column
        with pytest.raises(DomainError, match=f"seed {seed} outside 0..2\\^64-1"):
            seeded_coefficients(3, seed)

    def test_unprintable_seed_rejected(self):
        # Python raises ValueError rather than print an int of over 4,300 digits
        with pytest.raises(DomainError, match="too long to print"):
            seeded_coefficients(3, 10**5000)
