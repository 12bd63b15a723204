"""Graph parsing, maximal bipartite subgraphs, even cycles, and the
fundamental-cycle and cyclomatic-number oracles."""

import random
import tracemalloc

import pytest

from adjpoly import graphs
from adjpoly import (
    Graph,
    MaxBipartiteSubgraph,
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
    grid_graph,
    joined_cycles_graph,
    n6_sample_graphs,
    path_graph,
    petersen_graph,
    random_connected_graph,
    reference_joins,
    scan_maximal_bipartite_subgraphs,
    sides,
    subgraph_edges,
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

    # int() refuses a string of over 4,300 digits, leading zeros included;
    # such a label fits the grammar, so the message names its digit count
    # and does not echo the line
    @pytest.mark.parametrize(
        "line, digits",
        [
            ("1 " + "9" * 4301, 4301),
            ("2 " + "0" * 5000 + "3", 5001),
            ("-" + "9" * 4301 + " 1", 4301),
        ],
        ids=["nines", "leading_zeros", "negative"],
    )
    def test_oversized_label_named_by_digit_count(self, line, digits):
        with pytest.raises(ParseError) as info:
            parse_edge_list("1 2\n" + line)
        assert str(info.value) == f"line 2: {digits}-digit integer is too long"

    def test_grammar_checked_before_size(self):
        with pytest.raises(ParseError, match="non-integer label in '1_0 "):
            parse_edge_list("1_0 " + "9" * 4301)

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
        assert subgraph_edges(c4, subs[0]) == c4.edges

    def test_triangle_has_three_two_edge_paths(self):
        c3 = cycle_graph(3)
        subs = enumerate_maximal_bipartite_subgraphs(c3)
        assert [set(subgraph_edges(c3, b)) for b in subs] == [
            {(1, 2), (1, 3)},
            {(1, 3), (2, 3)},
            {(1, 2), (2, 3)},
        ]

    def test_joined_cycles_has_seven(self, joined45):
        subs = enumerate_maximal_bipartite_subgraphs(joined45)
        assert len(subs) == 7
        coranks = sorted(b.corank for b in subs)
        assert coranks == [0, 0, 0, 1, 1, 1, 1]
        # the four corank-1 subgraphs all contain the unique 4-cycle
        four_cycle = {(1, 2), (2, 3), (3, 4), (1, 4)}
        for b in subs:
            if b.corank == 1:
                assert four_cycle <= set(subgraph_edges(joined45, b))

    def test_deterministic_order(self, joined45):
        first = enumerate_maximal_bipartite_subgraphs(joined45)
        second = enumerate_maximal_bipartite_subgraphs(joined45)
        assert first == second

    @pytest.mark.parametrize("g", exhaustive_corpus(4), ids=lambda g: str(g.edges))
    def test_matches_brute_force_small(self, g):
        subs = enumerate_maximal_bipartite_subgraphs(g)
        enumerated = {frozenset(subgraph_edges(g, b)) for b in subs}
        assert enumerated == brute_force_max_bipartite(g)

    def test_matches_brute_force_n5_and_samples(self):
        graphs = [g for g in exhaustive_corpus(5) if g.vertex_count == 5]
        graphs += list(n6_sample_graphs().values())
        for g in graphs:
            enumerated = {
                frozenset(subgraph_edges(g, b))
                for b in enumerate_maximal_bipartite_subgraphs(g)
            }
            assert enumerated == brute_force_max_bipartite(g), g.edges

    @pytest.mark.parametrize("corpus", SCAN_CORPORA)
    def test_matches_scan_oracle_in_order(self, corpus):
        for g in SCAN_CORPORA[corpus]():
            expected = scan_maximal_bipartite_subgraphs(g)
            found = [
                (*sides(g, b), subgraph_edges(g, b), b.corank)
                for b in enumerate_maximal_bipartite_subgraphs(g)
            ]
            assert found == expected, g.edges

    def test_equality_and_hash_follow_the_masks(self, joined45):
        assert MaxBipartiteSubgraph._fields == ("plus_mask", "cut", "corank")
        first = enumerate_maximal_bipartite_subgraphs(joined45)
        rebuilt = Graph(joined45.vertex_count, joined45.edges)
        second = enumerate_maximal_bipartite_subgraphs(rebuilt)
        assert first == second
        assert [hash(b) for b in first] == [hash(b) for b in second]
        assert len(set(first + second)) == len(first)
        b = first[0]
        assert MaxBipartiteSubgraph(b.plus_mask, b.cut ^ 1, b.corank) != b
        assert MaxBipartiteSubgraph(b.plus_mask ^ 4, b.cut, b.corank) != b
        for g in exhaustive_corpus(5):
            for b in enumerate_maximal_bipartite_subgraphs(g):
                assert b.corank == cyclomatic_number(subgraph_edges(g, b), g)

    def test_memory_per_subgraph(self):
        # K_14 has 2^13 - 1 subgraphs; a tuple of three ints takes about
        # 155 B of traced peak each, and a record that also held its graph
        # took about 240 B
        g = complete_graph(14)
        tracemalloc.start()
        try:
            subs = enumerate_maximal_bipartite_subgraphs(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(subs) == (1 << 13) - 1
        assert peak < 200 * len(subs)

    @pytest.mark.parametrize("build", [path_graph, cycle_graph], ids=["path", "cycle"])
    def test_2000_vertices_without_recursion_limit(self, build):
        # twice the default recursion limit; the even cycle is bipartite too
        g = build(2000)
        subs = enumerate_maximal_bipartite_subgraphs(g)
        assert len(subs) == 1
        assert subgraph_edges(g, subs[0]) == g.edges

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
            members = set(subgraph_edges(joined45, b))
            for extra in set(joined45.edges) - members:
                # adding any non-member edge must create an odd cycle
                assert not _is_bipartite(members | {extra})
            for gone in members:
                smaller = members - {gone}
                if smaller:
                    assert _is_bipartite(smaller)

    def test_crossing_subgraph_connected_and_spanning(self, joined45):
        for b in enumerate_maximal_bipartite_subgraphs(joined45):
            edges = subgraph_edges(joined45, b)
            touched = {v for e in edges for v in e}
            assert touched == set(range(1, joined45.vertex_count + 1))
            assert cyclomatic_number(edges, joined45) == len(edges) - 7 + 1


def _cover_corpus():
    rng = random.Random(2029)
    return (
        list(exhaustive_corpus(5))
        + list(n6_sample_graphs().values())
        + [
            random_connected_graph(n, density, rng)
            for n in range(7, 13)
            for density in (0.1, 0.2, 0.35, 0.5)
            for _ in range(6)
        ]
        + [joined_cycles_graph(4, 4), petersen_graph(), cycle_graph(15)]
    )


class TestUnassignedCover:
    def test_every_decision_matches_the_reference(self, monkeypatch):
        # each cover test made while enumerating equals the search in
        # conftest.reference_joins, on every labeled N <= 5 graph, the
        # N = 6 sample and larger seeded and named graphs
        joins = graphs._UnassignedCover.joins
        decisions = []

        def checked(cover, i, comps, plus):
            expected = reference_joins(g, i, list(comps), plus)
            got = joins(cover, i, comps, plus)
            assert got == expected, (g.edges, i, comps, plus)
            decisions.append(got)
            return got

        monkeypatch.setattr(graphs._UnassignedCover, "joins", checked)
        for g in _cover_corpus():
            enumerate_maximal_bipartite_subgraphs(g)
        assert decisions.count(True) > 10000
        assert decisions.count(False) > 1000

    @pytest.mark.parametrize(
        "g, calls, cuts",
        [
            pytest.param(cycle_graph(15), 91, 0, id="C15"),
            pytest.param(path_graph(15), 0, 0, id="P15"),
            pytest.param(grid_graph(4, 5), 18, 18, id="grid4x5"),
            pytest.param(joined_cycles_graph(6, 6), 345, 114, id="J66"),
            pytest.param(complete_graph(13), 11, 0, id="K13"),
            pytest.param(petersen_graph(), 204, 17, id="Petersen"),
        ],
    )
    def test_work(self, monkeypatch, g, calls, cuts):
        # the number of cover tests the search makes, and of branches they
        # cut, pinned exactly: a search that closes vertices later or cuts
        # closed components later still finds every subgraph, only slower
        joins = graphs._UnassignedCover.joins
        decisions = []

        def counted(cover, i, comps, plus):
            decisions.append(joins(cover, i, comps, plus))
            return decisions[-1]

        monkeypatch.setattr(graphs._UnassignedCover, "joins", counted)
        enumerate_maximal_bipartite_subgraphs(g)
        assert (len(decisions), decisions.count(False)) == (calls, cuts)


def _is_bipartite(edges) -> bool:
    from conftest import is_bipartite_edges

    return is_bipartite_edges(edges)


class TestFundamentalCycle:
    def test_triangle_point_identity(self):
        c3 = cycle_graph(3)
        b = [
            s
            for s in enumerate_maximal_bipartite_subgraphs(c3)
            if set(subgraph_edges(c3, s)) == {(1, 2), (2, 3)}
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
            if frozenset(subgraph_edges(joined45, s)) == target
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
