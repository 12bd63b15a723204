"""Binomial identities, the joined-cycles formula's identities and guards,
the census of K2 and C4, and one-vertex sums.

The census against the closed forms and the class bounds on the whole
corpus are checked once, in test_acceptance.py."""

from collections import Counter
from math import comb

import pytest

from adjpoly import (
    DomainError,
    Graph,
    TooLarge,
    facet_census,
    joined_cycles_count,
    parse_edge_list,
)

from conftest import (
    complete_graph,
    cycle_graph,
    grid_graph,
    joined_cycles_graph,
    path_graph,
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

    # Python raises ValueError rather than print an int of over 4,300
    # digits, so no message may format one
    @pytest.mark.parametrize(
        "m1, m2, error, message",
        [
            (10**4300, 1, TooLarge, "joined-cycles guard"),
            (2, 10**4300, TooLarge, "joined-cycles guard"),
            (-(10**5000), 1, DomainError, "m1 must be >= 2"),
            (2, -(10**5000), DomainError, "m2 must be >= 1"),
        ],
        ids=["m1-huge", "m2-huge", "m1-huge-negative", "m2-huge-negative"],
    )
    def test_unprintable_int_keeps_its_error(self, m1, m2, error, message):
        with pytest.raises(error, match=message) as info:
            joined_cycles_count(m1, m2)
        assert "too long to print" in str(info.value)

    # True == 1 and 2.0 == 2: as numbers they would pass the range checks
    @pytest.mark.parametrize(
        "m1,m2",
        [(2.5, 1), (2, True), (True, 2), (2, 1.0), (2.0, 1), ("2", 1)],
        ids=["m1-2.5", "m2-True", "m1-True", "m2-1.0", "m1-2.0", "m1-str"],
    )
    def test_non_int_rejected(self, m1, m2):
        with pytest.raises(DomainError, match="must be an int"):
            joined_cycles_count(m1, m2)


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


def _one_vertex_sum(g1: Graph, g2: Graph, at: int) -> Graph:
    """g1 and g2 glued at one vertex: g2's vertex 1 becomes g1's vertex at,
    and g2's vertex v > 1 becomes g1.vertex_count + v - 1."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    label = [0, at, *range(n1 + 1, n1 + n2)]
    edges = list(g1.edges) + [(label[u], label[v]) for u, v in g2.edges]
    return Graph(n1 + n2 - 1, edges)


class TestOneVertexSum:
    """Each maximal bipartite subgraph of a one-vertex sum is a pair of
    them, one per summand, and its facets are pairs of facets: coranks
    add and class sizes multiply, so beta and the facet totals multiply."""

    SUMMANDS = {
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "K4": complete_graph(4),
        "P3": path_graph(3),
    }

    @staticmethod
    def _assert_census_is_product(g1: Graph, g2: Graph, at: int) -> None:
        c1, c2 = facet_census(g1), facet_census(g2)
        glued = facet_census(_one_vertex_sum(g1, g2, at))
        expected = Counter((r1 + r2, s1 * s2) for r1, s1 in c1 for r2, s2 in c2)
        assert Counter(glued) == expected

    @pytest.mark.parametrize("name1", list(SUMMANDS))
    @pytest.mark.parametrize("name2", list(SUMMANDS))
    def test_small_summands(self, name1, name2):
        g1, g2 = self.SUMMANDS[name1], self.SUMMANDS[name2]
        for at in (1, g1.vertex_count):
            self._assert_census_is_product(g1, g2, at)

    # dim 12 and 10: past the brute-force oracle's guard (dim <= 8)
    @pytest.mark.parametrize(
        "g1, g2, at",
        [
            (grid_graph(3, 3), cycle_graph(5), 5),
            (joined_cycles_graph(2, 2), complete_graph(5), 3),
        ],
        ids=["grid3x3-C5", "J(2,2)-K5"],
    )
    def test_past_the_oracle_guard(self, g1, g2, at):
        self._assert_census_is_product(g1, g2, at)
