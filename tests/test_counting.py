"""Binomial identities, joined-cycle formulas, and the facet census."""

from math import comb

import pytest

from adjpoly import (
    DomainError,
    TooLarge,
    enumerate_all_facets,
    facet_census,
    joined_cycles_count,
    parse_edge_list,
)

from conftest import (
    cycle_graph,
    exhaustive_corpus,
    facets_by_corank,
    is_bipartite_edges,
    joined_cycles_graph,
    n6_sample_graphs,
)


class TestBinomialIdentities:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_vandermonde_identity(self, n):
        total = sum(comb(n, i) * comb(n, i + 1) for i in range(n))
        assert total == comb(2 * n, n - 1)


class TestJoinedCyclesFormula:
    def test_4_5_counts(self):
        counts = joined_cycles_count(2, 2)
        assert counts == (36, 72)
        assert sum(counts) == 108

    def test_4_3_total(self):
        assert sum(joined_cycles_count(2, 1)) == 24

    def test_product_form_identity(self):
        # total == (m1 + 2*m2)/2 * C(2*m1, m1) * C(2*m2, m2)
        for m1 in range(2, 7):
            for m2 in range(1, 6):
                total = sum(joined_cycles_count(m1, m2))
                assert 2 * total == (m1 + 2 * m2) * comb(2 * m1, m1) * comb(
                    2 * m2, m2
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            joined_cycles_count(1, 1)
        with pytest.raises(DomainError):
            joined_cycles_count(2, 0)

    # m1 + m2 = 7001: C(6999, 3500) * C(7002, 3501) would pass 4,300 digits
    def test_over_bound_raises_too_large(self):
        with pytest.raises(TooLarge, match=r"m1 \+ m2 = 7001 \(bound 7000\)"):
            joined_cycles_count(3500, 3501)

    # True == 1 and 2.0 == 2: as numbers they would pass the range checks
    @pytest.mark.parametrize(
        "m1,m2",
        [(2.5, 1), (2, True), (True, 2), (2, 1.0), (2.0, 1), ("2", 1)],
        ids=["m1-2.5", "m2-True", "m1-True", "m2-1.0", "m1-2.0", "m1-str"],
    )
    def test_non_int_rejected(self, m1, m2):
        with pytest.raises(DomainError, match="must be an int"):
            joined_cycles_count(m1, m2)

    # every (m1, m2) whose joined-cycle graph has at most 9 vertices
    @pytest.mark.parametrize(
        "m1,m2", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1)]
    )
    def test_formula_matches_census_per_corank(self, m1, m2):
        corank0, corank1 = joined_cycles_count(m1, m2)
        census = facet_census(joined_cycles_graph(m1, m2))
        by_corank = facets_by_corank(census)
        assert by_corank.get(0, 0) == corank0
        assert by_corank.get(1, 0) == corank1
        assert sum(size for _, size in census) == corank0 + corank1


class TestJoinedCyclesGraph:
    def test_shape(self):
        g = joined_cycles_graph(2, 2)
        assert g.vertex_count == 7
        assert g.m == 8

    def test_shared_edge_is_1_2(self):
        for m1, m2 in [(2, 1), (3, 2)]:
            g = joined_cycles_graph(m1, m2)
            assert (1, 2) in g.edges
            assert g.vertex_count == 2 * m1 + 2 * m2 - 1
            assert g.m == 2 * m1 + 2 * m2


class TestEvenCycleCount:
    def test_against_enumeration(self):
        for k in (2, 3, 4):
            assert len(enumerate_all_facets(cycle_graph(2 * k))) == comb(2 * k, k)


class TestFacetCensus:
    def test_c4(self):
        g = cycle_graph(4)
        census = facet_census(g)
        assert census == ((1, 6),)
        assert len(census) << g.n == 8

    def test_k2_bound_tight(self):
        g = parse_edge_list("1 2")
        census = facet_census(g)
        assert census == ((0, 2),)
        assert sum(size for _, size in census) == len(census) << g.n == 2

    def test_joined_4_5(self, joined45):
        census = facet_census(joined45)
        assert len(census) == 7
        assert sorted(size for _, size in census) == [12, 12, 12, 18, 18, 18, 18]
        assert sum(size for _, size in census) == 108
        assert len(census) << joined45.n == 7 * 64

    def test_totals_are_sums(self):
        # the total is the sum of the sizes by definition; it stays in the bound
        for g in list(exhaustive_corpus(5))[::17]:
            census = facet_census(g)
            assert sum(size for _, size in census) <= len(census) << g.n

    def test_bipartite_inputs_have_beta_one(self):
        graphs = list(exhaustive_corpus(5)) + list(n6_sample_graphs().values())
        checked = 0
        for g in graphs:
            if not is_bipartite_edges(g.edges):
                continue
            census = facet_census(g)
            assert len(census) == 1
            assert sum(size for _, size in census) <= 1 << g.n
            checked += 1
        assert checked > 100
