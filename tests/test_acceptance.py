"""Acceptance suite: one test per criterion, each printing a PASS line.

Each fact that holds across a corpus is checked here once, on its largest
corpus (`_oracle_corpus`) or on the named closed-form graphs; the module
tests keep unit-level facts: hand-built examples, guards, tamper tests and
the oracles' own checks.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact (integer arithmetic); the only tolerances
are the stated wall-clock budgets.
"""

import itertools
import json
import random
import time
from math import comb

from adjpoly import (
    Graph,
    brute_force_facets,
    enumerate_all_facets,
    enumerate_facet_classes,
    enumerate_maximal_bipartite_subgraphs,
    facet_census,
    has_even_cycle,
    homogenization_data,
    joined_cycles_count,
    unmixed_support,
)
from adjpoly.cli import run

from conftest import (
    all_cycles,
    all_points_brute_force_facets,
    balanced_on_all_cycles,
    complete_graph,
    connected_spanning,
    cycle_graph,
    cyclomatic_number,
    exhaustive_corpus,
    facets_by_corank,
    fraction_rank,
    grid_graph,
    is_bipartite_edges,
    joined_cycles_graph,
    n6_sample_graphs,
    random_connected_graph,
    tight_edges,
    tight_points,
)


def _report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def _oracle_corpus(joined45):
    """Exhaustive labeled N <= 5, the fixed N = 6 sample, the 7-vertex
    joined-cycle graph, 12 seeded random graphs with N = 7-8, the
    benchmark's named graphs that fit the oracle guard, and the dense
    graphs of `_dense_graphs`."""
    return (
        list(exhaustive_corpus(5))
        + list(n6_sample_graphs().values())
        + [joined45]
        + _random_sparse_graphs()
        + [
            complete_graph(6),
            cycle_graph(9),
            grid_graph(3, 3),
            joined_cycles_graph(2, 3),
            joined_cycles_graph(3, 2),
        ]
        + _dense_graphs()
    )


def _dense_graphs() -> list:
    """K_{3,3}, K_{3,4}, the prism C3 x K2, the wheels W6 and W7 (a hub
    joined to every vertex of a 6- or 7-cycle) and the cube Q3.  K_{3,3}
    and the prism take their parts and triangles on odd and even labels,
    so they are not the N = 6 sample's labelings."""
    odd, even = (1, 3, 5), (2, 4, 6)

    def wheel(rim: int) -> Graph:
        cycle = list(range(2, rim + 2))
        rim_edges = zip(cycle, cycle[1:] + cycle[:1])
        return Graph(rim + 1, [(1, v) for v in cycle] + list(rim_edges))

    return [
        Graph(6, [(u, v) for u in odd for v in even]),
        Graph(7, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6, 7)]),
        Graph(
            6,
            [*itertools.combinations(odd, 2), *itertools.combinations(even, 2)]
            + [(1, 2), (3, 4), (5, 6)],
        ),
        wheel(6),
        wheel(7),
        # labels 1..8 are 0..7 plus one, and an edge flips one bit
        Graph(8, [(u + 1, u + 1 + b) for u in range(8) for b in (1, 2, 4) if not u & b]),
    ]


def _random_sparse_graphs() -> list:
    """Connected graphs with N = 7-8, at least one cycle and at most 12
    edges, so the brute-force oracle takes at most a few seconds each."""
    rng = random.Random(7)
    graphs = []
    while len(graphs) < 12:
        g = random_connected_graph(rng.randint(7, 8), 0.15, rng)
        if g.vertex_count <= g.m <= 12:
            graphs.append(g)
    return graphs


def test_criterion_1_worked_example(joined45, joined45_path):
    start = time.monotonic()
    subs = enumerate_maximal_bipartite_subgraphs(joined45)
    census = facet_census(joined45)
    elapsed = time.monotonic() - start

    assert len(subs) == 7
    coranks = sorted(b.corank for b in subs)
    assert coranks == [0, 0, 0, 1, 1, 1, 1]
    assert sorted(size for _, size in census) == [12, 12, 12, 18, 18, 18, 18]
    assert sum(size for _, size in census) == 108
    assert facets_by_corank(census) == {0: 36, 1: 72}
    assert elapsed < 5.0

    result = run(["count", str(joined45_path)])
    assert result.exit_code == 0
    assert "total 108" in result.stdout
    _report(1, f"7 subgraphs, classes 3x12 + 4x18, 36+72=108 in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(joined45):
    start = time.monotonic()
    checked = 0
    for g in _oracle_corpus(joined45):
        fast = {f.normal for f in enumerate_all_facets(g)}
        oracle = {f.normal for f in brute_force_facets(g)}
        assert fast == oracle, f"discrepancy on {g.edges}"
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(2, f"{checked} graphs, zero discrepancies, {elapsed:.1f}s")


def test_oracle_chord_test_matches_all_points(joined45):
    # the oracle tests each spanning tree's chords only; the reference
    # tests all 2m points, and the two must return the same facets
    for g in _oracle_corpus(joined45):
        assert brute_force_facets(g) == all_points_brute_force_facets(g), g.edges


def test_oracle_corpus_keeps_the_small_corpora(joined45):
    # the module tests leave these graphs' corpus-wide facts to this suite,
    # so the corpus may grow but must keep each of them (Graph has no __eq__)
    held = {g.edges for g in _oracle_corpus(joined45)}
    required = [*exhaustive_corpus(5), *n6_sample_graphs().values(), joined45]
    assert [g.edges for g in required if g.edges not in held] == []


def test_criterion_3_even_cycle_counts():
    for k in (2, 3, 4):
        assert len(enumerate_all_facets(cycle_graph(2 * k))) == comb(2 * k, k)
    _report(3, "C4 -> 6, C6 -> 20 and C8 -> 70 facets, matching C(2k, k)")


def test_criterion_4_joined_cycles_formula():
    # every (m1, m2) whose joined-cycle graph has at most 9 vertices
    pairs = ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1))
    for m1, m2 in pairs:
        corank0, corank1 = joined_cycles_count(m1, m2)
        by_corank = facets_by_corank(facet_census(joined_cycles_graph(m1, m2)))
        assert by_corank.get(0, 0) == corank0, (m1, m2)
        assert by_corank.get(1, 0) == corank1, (m1, m2)
        assert set(by_corank) <= {0, 1}
    _report(4, f"per-corank censuses match the formula for {len(pairs)} (m1, m2) pairs")


def test_criterion_5_bounds(joined45):
    bipartite_seen = 0
    for g in _oracle_corpus(joined45):
        census = facet_census(g)
        class_bound = 1 << g.n
        assert all(size <= class_bound for _, size in census)
        assert sum(size for _, size in census) <= len(census) * class_bound
        if is_bipartite_edges(g.edges):
            assert len(census) == 1
            bipartite_seen += 1
    assert bipartite_seen > 100
    _report(5, f"class and total bounds hold; beta = 1 on {bipartite_seen} bipartite inputs")


def test_criterion_6_corank_dim_and_balancing(joined45):
    graphs = [g for g in _oracle_corpus(joined45) if g.vertex_count <= 7]
    facets_checked = 0
    for g in graphs:
        cycles = all_cycles(g)
        for cls in enumerate_facet_classes(g):
            corank = cls.subgraph.corank
            for facet in cls.facets:
                edges = [g.edges[i >> 1] for i in facet.point_indices]
                rank = fraction_rank(tight_points(g, facet))
                assert corank == cyclomatic_number(edges, g)
                assert corank == len(edges) - rank
                # connected and spanning: rank N - 1, so dim N - 2, and the
                # points are independent iff they are a spanning tree's edges
                assert connected_spanning(edges, g.vertex_count)
                assert rank - 1 == g.vertex_count - 2
                assert (len(edges) == g.n) == (corank == 0)
                assert balanced_on_all_cycles(cycles, tight_edges(g, facet))
                facets_checked += 1
    assert facets_checked > 10_000
    _report(6, f"corank/dim/independence/balancing hold on {facets_checked} facets")


def test_criterion_7_simplicial_equivalence(joined45):
    for g in _oracle_corpus(joined45):
        all_corank0 = all(
            cls.subgraph.corank == 0 for cls in enumerate_facet_classes(g)
        )
        no_even_cycle = not any(len(c) % 2 == 0 for c in all_cycles(g))
        assert all_corank0 == no_even_cycle == (not has_even_cycle(g)), g.edges
    _report(7, "all facets corank 0 <=> no even cycle <=> not has_even_cycle")


def test_criterion_8_binomial_identities():
    for n in range(1, 7):
        zero = two = 0
        for d in itertools.product((-1, 1), repeat=2 * n):
            value = sum(d[:n]) - sum(d[n:])
            zero += value == 0
            two += value == 2
        assert comb(2 * n, n) == zero
        assert comb(2 * n, n - 1) == two
    _report(8, "C(2n, n) and C(2n, n - 1) match exhaustive scans for n <= 6")


def test_criterion_9_homogenization_soundness(joined45):
    for g in (cycle_graph(4), joined45):
        rows = homogenization_data(g)
        for vector in unmixed_support(g):
            # V.a - h, where h = -1 in every entry by reflexivity
            lifted = [sum(r * x for r, x in zip(row, vector)) + 1 for row in rows]
            assert min(lifted) >= 0
            if any(vector):
                assert 0 in lifted
            else:
                assert min(lifted) > 0
    _report(9, "V.a - h >= 0 with per-point zeros and strictly positive origin")


def test_criterion_10_determinism(joined45_path):
    first = run(["facets", str(joined45_path), "--json"])
    second = run(["facets", str(joined45_path), "--json"])
    assert first.exit_code == second.exit_code == 0
    assert first.stdout.encode("utf-8") == second.stdout.encode("utf-8")
    json.loads(first.stdout)  # exactly one well-formed document
    _report(10, "two `facets --json` runs are byte-identical")
