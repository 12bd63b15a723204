"""Graph parsing, maximal bipartite subgraphs, even cycles, and the
fundamental-cycle and cyclomatic-number oracles."""

import random
import tracemalloc

import pytest

from adjpoly import graphs
from adjpoly import (
    Graph,
    ParseError,
    TooLarge,
    ValidationError,
    enumerate_maximal_bipartite_subgraphs,
    has_even_cycle,
    parse_edge_list,
)
from adjpoly.geometry import edge_point

from conftest import (
    brute_force_max_bipartite,
    complete_graph,
    cycle_graph,
    cyclomatic_number,
    exhaustive_corpus,
    fundamental_cycle_rows,
    n6_sample_graphs,
    path_graph,
    random_connected_graph,
    scan_maximal_bipartite_subgraphs,
)


def _random_graphs():
    rng = random.Random(2107)
    return [
        random_connected_graph(n, density, rng)
        for n in range(6, 13)
        for density in (0.2, 0.4, 0.6, 0.8, 1.0)
        for _ in range(2)
    ]


def _sparse_graphs():
    rng = random.Random(12315)
    return [random_connected_graph(n, 0.1, rng) for n in (13, 14)]


# corpora on which the search must equal the bipartition scan, order included
SCAN_CORPORA = {
    "exhaustive_n5": lambda: exhaustive_corpus(5),
    "n6_samples": lambda: n6_sample_graphs().values(),
    "random_n6_12": _random_graphs,
    "complete_n2_10": lambda: [complete_graph(n) for n in range(2, 11)],
    "sparse_n13_14": _sparse_graphs,
}


class TestParseEdgeList:
    def test_smallest_valid_graph(self):
        g = parse_edge_list("1 2")
        assert g.vertex_count == 2
        assert g.edges == ((1, 2),)

    def test_joined_cycles_file(self, joined45):
        assert joined45.vertex_count == 7
        assert joined45.m == 8

    def test_comments_blanks_and_whitespace(self):
        g = parse_edge_list("# header\n\n  2   1 \n2 3\n")
        assert g.edges == ((1, 2), (2, 3))

    def test_crlf_cr_and_tabs(self):
        g = parse_edge_list("1\t2\r\n2 \t 3\r\t3\t4\t\r\n")
        assert g.edges == ((1, 2), (2, 3), (3, 4))

    def test_bytes_input(self):
        assert parse_edge_list(b"1 2\n").m == 1

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            parse_edge_list("1 1")

    def test_duplicate_edge(self):
        with pytest.raises(ValidationError):
            parse_edge_list("1 2\n2 1")

    def test_disconnected(self):
        with pytest.raises(ValidationError):
            parse_edge_list("1 2\n3 4")

    def test_bfs_order_from_vertex_1_ascending_neighbours(self):
        g = parse_edge_list("1 4\n1 3\n3 5\n4 2\n")
        assert g.bfs_order == (1, 3, 4, 5, 2)

    def test_missing_label_means_isolated_vertex(self):
        with pytest.raises(ValidationError):
            parse_edge_list("1 3")

    def test_far_off_label_rejected_before_allocating(self):
        # two edges cannot connect 10^6 vertices, so no per-vertex table
        # may be built to find that out
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="not connected"):
                parse_edge_list("1 2\n1 1000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            parse_edge_list("# nothing\n")

    # int() alone would read "+1 2", "1_0 2" and "\u0661 \u0662" as (1, 2),
    # (10, 2) and (1, 2); str.splitlines() and str.split() would read the
    # next three as edges (1, 2) and (2, 3) and the last as (1, 2)
    @pytest.mark.parametrize(
        "line",
        [
            "1",
            "1 2 3",
            "1 two",
            "+1 2",
            "1_0 2",
            "\u0661 \u0662",
            "1 2\u20282 3",
            "1 2\x1c2 3",
            b"1 2\xc2\x852 3",
            "1\xa02",
        ],
    )
    def test_malformed_line(self, line):
        with pytest.raises(ParseError):
            parse_edge_list(line)

    # True == 1 and 3.0 == 3, so comparisons alone would let these through
    @pytest.mark.parametrize(
        "vertex_count, edges",
        [
            (3, [(True, 2), (2, 3), (1, 3)]),
            (3, [(1, 2), (2, 3.0)]),
            (3.0, [(1, 2), (2, 3)]),
            (3, [(1, 2), ("2", 3)]),
        ],
        ids=["bool_label", "float_label", "float_count", "str_label"],
    )
    def test_non_int_input_rejected(self, vertex_count, edges):
        with pytest.raises(ValidationError, match="not an int|non-int label"):
            Graph(vertex_count, edges)

    @pytest.mark.parametrize(
        "edges, entry",
        [
            ([(1, 2, 3), (2, 3)], "(1, 2, 3)"),
            ([1, (2, 3)], "1"),
            ([(1, 2), (3,)], "(3,)"),
            ([(1, 2), None], "None"),
        ],
        ids=["triple", "int", "single", "none"],
    )
    def test_edge_not_a_pair_rejected(self, edges, entry):
        with pytest.raises(ValidationError) as info:
            Graph(3, edges)
        assert str(info.value) == f"edge {entry} is not a pair"

    @pytest.mark.parametrize("edges", [5, None], ids=["int", "none"])
    def test_edge_list_not_iterable_rejected(self, edges):
        with pytest.raises(ValidationError) as info:
            Graph(3, edges)
        assert str(info.value) == f"edge list {edges} is not iterable"

    # Python raises ValueError rather than print an int of over 4,300
    # digits, so no message may format one
    @pytest.mark.parametrize(
        "vertex_count, edges",
        [
            (3, [(1, 10**5000)]),
            (10**5000, [(0, 1)]),
            (-(10**5000), [(1, 2)]),
            (3, 10**5000),
            (3, [(1, 2, 10**5000)]),
            (3, [(10**5000, "1")]),
            (10**5000, [(10**5000, 10**5000)]),
            (10**5000, [(1, 10**5000), (10**5000, 1)]),
        ],
        ids=[
            "label",
            "vertex_count_in_range_message",
            "vertex_count",
            "edge_list",
            "edge",
            "beside_non_int",
            "self_loop",
            "duplicate",
        ],
    )
    def test_unprintable_int_keeps_validation_error(self, vertex_count, edges):
        with pytest.raises(ValidationError, match="too long to print"):
            Graph(vertex_count, edges)

    def test_nonpositive_label(self):
        with pytest.raises(ValidationError):
            parse_edge_list("0 1")
        with pytest.raises(ValidationError, match="labels must be >= 1"):
            parse_edge_list("-1 2")


class TestMaximalBipartiteSubgraphs:
    def test_bipartite_graph_is_its_own_unique_subgraph(self):
        c4 = cycle_graph(4)
        subs = enumerate_maximal_bipartite_subgraphs(c4)
        assert len(subs) == 1
        assert subs[0].edges == c4.edges

    def test_triangle_has_three_two_edge_paths(self):
        subs = enumerate_maximal_bipartite_subgraphs(cycle_graph(3))
        assert [set(b.edges) for b in subs] == [
            {(1, 2), (1, 3)},
            {(1, 3), (2, 3)},
            {(1, 2), (2, 3)},
        ]

    def test_joined_cycles_has_seven(self, joined45):
        subs = enumerate_maximal_bipartite_subgraphs(joined45)
        assert len(subs) == 7
        coranks = sorted(b.cyclomatic_number() for b in subs)
        assert coranks == [0, 0, 0, 1, 1, 1, 1]
        # the four corank-1 subgraphs all contain the unique 4-cycle
        four_cycle = {(1, 2), (2, 3), (3, 4), (1, 4)}
        for b in subs:
            if b.cyclomatic_number() == 1:
                assert four_cycle <= set(b.edges)

    def test_deterministic_order(self, joined45):
        first = enumerate_maximal_bipartite_subgraphs(joined45)
        second = enumerate_maximal_bipartite_subgraphs(joined45)
        assert first == second

    @pytest.mark.parametrize("g", exhaustive_corpus(4), ids=lambda g: str(g.edges))
    def test_matches_brute_force_small(self, g):
        enumerated = {frozenset(b.edges) for b in enumerate_maximal_bipartite_subgraphs(g)}
        assert enumerated == brute_force_max_bipartite(g)

    def test_matches_brute_force_n5_and_samples(self):
        graphs = [g for g in exhaustive_corpus(5) if g.vertex_count == 5]
        graphs += list(n6_sample_graphs().values())
        for g in graphs:
            enumerated = {
                frozenset(b.edges) for b in enumerate_maximal_bipartite_subgraphs(g)
            }
            assert enumerated == brute_force_max_bipartite(g), g.edges

    @pytest.mark.parametrize("corpus", SCAN_CORPORA)
    def test_matches_scan_oracle_in_order(self, corpus):
        for g in SCAN_CORPORA[corpus]():
            expected = scan_maximal_bipartite_subgraphs(g)
            assert enumerate_maximal_bipartite_subgraphs(g) == expected, g.edges

    @pytest.mark.parametrize("build", [path_graph, cycle_graph], ids=["path", "cycle"])
    def test_2000_vertices_without_recursion_limit(self, build):
        # twice the default recursion limit; the even cycle is bipartite too
        g = build(2000)
        subs = enumerate_maximal_bipartite_subgraphs(g)
        assert len(subs) == 1
        assert subs[0].edges == g.edges

    def test_subgraph_bound(self, monkeypatch):
        # K_5 has 2^4 - 1 = 15 maximal bipartite subgraphs
        g = complete_graph(5)
        monkeypatch.setattr(graphs, "BIPARTITE_MAX_SUBGRAPHS", 15)
        assert len(enumerate_maximal_bipartite_subgraphs(g)) == 15
        monkeypatch.setattr(graphs, "BIPARTITE_MAX_SUBGRAPHS", 14)
        with pytest.raises(
            TooLarge, match=r"more than 14 .* N = 5, m = 10; .* up to 2\^4 - 1 subgraphs"
        ):
            enumerate_maximal_bipartite_subgraphs(g)

    def test_maximality_by_perturbation(self, joined45):
        for b in enumerate_maximal_bipartite_subgraphs(joined45):
            members = set(b.edges)
            for extra in set(joined45.edges) - members:
                # adding any non-member edge must create an odd cycle
                assert not _is_bipartite(members | {extra})
            for gone in members:
                smaller = members - {gone}
                if smaller:
                    assert _is_bipartite(smaller)

    def test_crossing_subgraph_connected_and_spanning(self, joined45):
        for b in enumerate_maximal_bipartite_subgraphs(joined45):
            touched = {v for e in b.edges for v in e}
            assert touched == set(joined45.vertices())
            assert cyclomatic_number(b.edges, joined45) == len(b.edges) - 7 + 1


def _is_bipartite(edges) -> bool:
    from conftest import is_bipartite_edges

    return is_bipartite_edges(edges)


class TestFundamentalCycle:
    def test_triangle_point_identity(self):
        c3 = cycle_graph(3)
        b = [
            s
            for s in enumerate_maximal_bipartite_subgraphs(c3)
            if set(s.edges) == {(1, 2), (2, 3)}
        ][0]
        oriented, rows = fundamental_cycle_rows(c3, b)
        assert oriented == [(2, 1), (2, 3)]
        assert list(rows) == [(1, 3)]
        assert rows[(1, 3)] == [1, -1]
        _assert_point_identity(c3, oriented, (1, 3), rows[(1, 3)])

    def test_point_identity_everywhere(self):
        for g in exhaustive_corpus(5):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                oriented, rows = fundamental_cycle_rows(g, b)
                assert len(oriented) == g.n
                assert len(rows) == g.m - g.n
                for e, row in rows.items():
                    assert set(row) <= {-1, 0, 1}
                    _assert_point_identity(g, oriented, e, row)

    def test_joined_cycles_tree_class_rows(self, joined45):
        # the maximal bipartite subgraph that is the path 2-3-4-5-6-7-1:
        # both chords close cycles through it, giving supports of sizes 6
        # (the 7-cycle) and 4 (the 5-cycle), with balanced signs
        target = frozenset(joined45.edges) - {(1, 2), (1, 4)}
        b = [
            s
            for s in enumerate_maximal_bipartite_subgraphs(joined45)
            if frozenset(s.edges) == target
        ][0]
        _, rows = fundamental_cycle_rows(joined45, b)
        assert sorted(rows) == [(1, 2), (1, 4)]
        assert sorted(rows[(1, 2)], reverse=True) == [1, 1, 1, -1, -1, -1]
        assert sorted(rows[(1, 4)], reverse=True) == [1, 1, 0, 0, -1, -1]


def _assert_point_identity(g, oriented, e, row):
    """The signed tree points of the row sum to the point of e reversed."""
    n = g.n
    a, b = e
    acc = [0] * n
    for coeff, edge in zip(row, oriented):
        if coeff:
            p = edge_point(n, *edge)
            acc = [x + coeff * y for x, y in zip(acc, p)]
    assert tuple(acc) == edge_point(n, b, a)


class TestCyclomaticNumber:
    def test_tree_edges_zero(self, joined45):
        path = set(joined45.edges) - {(1, 2), (1, 4)}
        assert cyclomatic_number(path, joined45) == 0

    def test_four_cycle_one(self):
        c4 = cycle_graph(4)
        assert cyclomatic_number(c4.edges, c4) == 1

    def test_joined_cycles_full_edge_set_two(self, joined45):
        assert cyclomatic_number(joined45.edges, joined45) == 2

    def test_empty_subset(self):
        assert cyclomatic_number([], cycle_graph(3)) == 0

    def test_disconnected_subset(self):
        g = cycle_graph(6)
        assert cyclomatic_number([(1, 2), (4, 5)], g) == 2 - 4 + 2

    def test_foreign_edge_rejected(self):
        with pytest.raises(ValidationError):
            cyclomatic_number([(1, 3)], cycle_graph(4))

    def test_orientation_and_repeats_ignored(self):
        c4 = cycle_graph(4)
        assert cyclomatic_number([(2, 1), (1, 2)], c4) == 0


class TestHasEvenCycle:
    def test_triangle_no(self):
        assert has_even_cycle(cycle_graph(3)) is False

    def test_four_cycle_yes(self):
        assert has_even_cycle(cycle_graph(4)) is True

    def test_joined_cycles_yes(self, joined45):
        assert has_even_cycle(joined45) is True

    def test_tree_no(self):
        assert has_even_cycle(Graph(4, [(1, 2), (2, 3), (2, 4)])) is False

    def test_odd_cycles_sharing_vertexless_paths(self):
        # two triangles sharing one edge contain a 4-cycle
        g = Graph(4, [(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)])
        assert has_even_cycle(g) is True
