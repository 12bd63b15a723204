"""Command-line interface: subcommands, exit codes, JSON schemas, determinism."""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import adjpoly
from adjpoly import cli, facets, geometry, graphs
from adjpoly.errors import show
from adjpoly.cli import run
from adjpoly.facets import enumerate_facet_classes

from conftest import exhaustive_corpus, n6_sample_graphs, tight_points


def _adjpoly(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(adjpoly.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "adjpoly", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
    )


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("1 2\n2 3\n3 4\n1 4\n")
    return str(path)


@pytest.fixture()
def c10_file(tmp_path):
    lines = [f"{i} {i + 1}" for i in range(1, 10)] + ["1 10"]
    path = tmp_path / "c10.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def joined45_file(joined45_path):
    return str(joined45_path)


class TestCount:
    def test_joined_4_5_text(self, joined45_file):
        result = run(["count", joined45_file])
        assert result.exit_code == 0
        assert "total 108" in result.stdout
        assert "corank 0: subgraphs=3 facets=36" in result.stdout
        assert "corank 1: subgraphs=4 facets=72" in result.stdout
        assert result.stdout.count("size=12") == 3
        assert result.stdout.count("size=18") == 4

    def test_json_schema(self, joined45_file):
        result = run(["count", joined45_file, "--json"])
        doc = json.loads(result.stdout)
        assert doc["version"] == "v1"
        assert doc["beta"] == 7
        assert doc["total"] == 108
        assert doc["bound"] == 448
        assert sorted(c["size"] for c in doc["classes"]) == [12] * 3 + [18] * 4
        assert all(set(c) == {"corank", "size"} for c in doc["classes"])


class TestFacets:
    def test_text_total(self, c4_file):
        result = run(["facets", c4_file])
        assert result.exit_code == 0
        assert result.stdout.rstrip().endswith("total 6")

    def test_json_schema(self, c4_file):
        doc = json.loads(run(["facets", c4_file, "--json"]).stdout)
        assert doc["version"] == "v1"
        assert doc["total"] == 6
        cls = doc["classes"][0]
        assert {"subgraph_index", "class_size", "corank", "facets"} <= set(cls)
        facet = cls["facets"][0]
        assert set(facet) == {"normal", "points", "subgraph_edges", "dim", "corank"}
        assert facet["dim"] == 2
        assert all(len(p) == 3 for p in facet["points"])


def _facets_doc(g: graphs.Graph) -> dict:
    """The `facets --json` document as nested dicts and lists."""
    classes = enumerate_facet_classes(g)
    doc_classes = []
    for index, cls in enumerate(classes):
        corank = cls.subgraph.corank
        facet_docs = [
            {
                "normal": list(f.normal),
                "points": [list(p) for p in tight_points(g, f)],
                "subgraph_edges": [list(g.edges[i >> 1]) for i in f.point_indices],
                "dim": g.n - 1,
                "corank": corank,
            }
            for f in cls.facets
        ]
        doc_classes.append(
            {
                "subgraph_index": index,
                "class_size": len(cls.facets),
                "corank": corank,
                "facets": facet_docs,
            }
        )
    return {
        "version": "v1",
        "vertex_count": g.vertex_count,
        "edge_count": g.m,
        "classes": doc_classes,
        "total": sum(len(cls.facets) for cls in classes),
    }


class TestFacetsJsonWriter:
    """`facets --json` writes its text directly; it must equal json.dumps."""

    @pytest.fixture(params=["n_le_5", "n6_sample", "joined_4_5"])
    def graph_files(self, request, tmp_path, joined45_path):
        if request.param == "joined_4_5":
            return [joined45_path]
        if request.param == "n_le_5":
            corpus = exhaustive_corpus(5)
        else:
            corpus = n6_sample_graphs().values()
        files = []
        for k, g in enumerate(corpus):
            path = tmp_path / f"g{k}.txt"
            path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
            files.append(path)
        return files

    def test_equals_json_dumps(self, graph_files):
        for path in graph_files:
            g = graphs.parse_edge_list(path.read_bytes())
            result = run(["facets", str(path), "--json"])
            assert result.exit_code == 0, result.stderr
            assert result.stdout == json.dumps(_facets_doc(g)) + "\n", path.name


class TestBipartiteAndSimplicial:
    def test_bipartite(self, c4_file):
        result = run(["bipartite", c4_file])
        assert result.exit_code == 0
        assert "maximal bipartite subgraphs: 1" in result.stdout
        assert "V+ = 1 3" in result.stdout

    def test_simplicial(self, c4_file, tmp_path):
        assert run(["simplicial", c4_file]).stdout == "simplicial no\n"
        tri = tmp_path / "c3.txt"
        tri.write_text("1 2\n2 3\n1 3\n")
        assert run(["simplicial", str(tri)]).stdout == "simplicial yes\n"

    def test_simplicial_trips_subgraph_guard(self, tmp_path, monkeypatch):
        k5 = tmp_path / "k5.txt"
        k5.write_text("".join(f"{u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)))
        monkeypatch.setattr(graphs, "BIPARTITE_MAX_SUBGRAPHS", 14)
        result = run(["simplicial", str(k5)])
        assert result.exit_code == 2
        assert "bipartite guard: more than 14" in result.stderr


class TestLongPath:
    """A 40-vertex path: 2^39 bipartitions, one maximal bipartite subgraph."""

    @pytest.fixture()
    def path40_file(self, tmp_path):
        path = tmp_path / "path40.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 40)))
        return str(path)

    def test_bipartite(self, path40_file):
        result = _adjpoly("bipartite", path40_file)
        assert result.returncode == 0
        assert result.stdout.startswith("maximal bipartite subgraphs: 1\n")
        assert result.stdout.count("subgraph ") == 1

    def test_simplicial(self, path40_file):
        result = _adjpoly("simplicial", path40_file)
        assert result.returncode == 0
        assert result.stdout == "simplicial yes\n"

    def test_count_trips_sign_search_guard(self, path40_file):
        result = _adjpoly("count", path40_file)
        assert result.returncode == 2
        assert "sign search guard: n = 39 > 30" in result.stderr
        assert "up to 2^39 sign vectors" in result.stderr


class TestOracleCheck:
    def test_c4_agrees(self, c4_file):
        result = run(["oracle-check", c4_file])
        assert result.exit_code == 0
        assert result.stdout == "6 == 6\n"

    def test_guard_exceeded(self, c10_file):
        result = run(["oracle-check", c10_file])
        assert result.exit_code == 2
        assert "guard" in result.stderr
        assert "dim 9 (bound 8)" in result.stderr
        assert (
            "C(10, 9) edge sets and 2^9 orientations for each spanning tree"
            in result.stderr
        )

    @pytest.mark.parametrize(
        "tamper, stdout",
        [
            pytest.param(
                lambda fs: fs[1:], "5 != 6: (1, 0, 1) only in the oracle\n", id="drop"
            ),
            pytest.param(
                lambda fs: [fs[0]._replace(normal=(-9, -9, -9))] + fs[1:],
                "6 != 6: (-9, -9, -9) only in the enumeration\n",
                id="replace",
            ),
        ],
    )
    def test_mismatch_names_a_normal(self, c4_file, monkeypatch, tamper, stdout):
        # the smallest normal that one side found and the other did not,
        # so equal counts still show what differs
        enumerate_all_facets = facets.enumerate_all_facets
        monkeypatch.setattr(
            facets, "enumerate_all_facets", lambda g: tamper(enumerate_all_facets(g))
        )
        result = run(["oracle-check", c4_file])
        assert (result.exit_code, result.stdout, result.stderr) == (3, stdout, "")

    def test_oracle_fault_exits_3(self, c4_file, monkeypatch):
        # (0, 0, 1) passes every chord test on C4, but its tight points
        # (3, 4) and (1, 4) span a line, not a facet
        def bogus_walk(tree):
            yield 0, [0, 0, 0, 0, 1]

        monkeypatch.setattr(geometry, "_orientation_walk", bogus_walk)
        result = run(["oracle-check", c4_file])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "internal inconsistency: oracle accepted normal (0, 0, 1): "
            "minimizer set has affine dimension != 2\n"
        )


class TestPath31:
    """A 31-vertex path: n = 30 passes the sign-search guard, and its one
    class has 2^30 facets."""

    @pytest.fixture()
    def path31_file(self, tmp_path):
        path = tmp_path / "path31.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 31)))
        return str(path)

    def test_oracle_check_trips_its_guard_first(self, path31_file):
        result = _adjpoly("oracle-check", path31_file)
        assert result.returncode == 2
        assert result.stderr == (
            "guard exceeded: oracle guard: dim 30 (bound 8), 60 points (bound 40); "
            "the search would need C(30, 30) edge sets "
            "and 2^30 orientations for each spanning tree\n"
        )

    @pytest.mark.parametrize("command", ["count", "facets"])
    def test_enumeration_trips_facet_guard(self, path31_file, command):
        result = _adjpoly(command, path31_file)
        assert result.returncode == 2
        assert result.stderr == (
            "guard exceeded: facet guard: more than 262144 facets, 0 before this "
            "class, whose search over n = 30 tree edges would keep up to 2^30\n"
        )


class TestJoinedCycles:
    def test_4_5(self):
        result = run(["joined-cycles", "2", "2"])
        assert result.exit_code == 0
        assert result.stdout == "corank0=36 corank1=72 total=108\n"

    def test_domain_error(self):
        result = run(["joined-cycles", "1", "1"])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "m1, m2, message",
        [("1", "7000", "m1 must be >= 2"), ("7000", "0", "m2 must be >= 1")],
    )
    def test_domain_checked_before_guard(self, m1, m2, message):
        result = run(["joined-cycles", m1, m2])
        assert result.exit_code == 1
        assert message in result.stderr

    def test_at_bound(self):
        assert run(["joined-cycles", "3500", "3500"]).exit_code == 0

    # int() takes all but "x"; the edge-list grammar takes none of them
    @pytest.mark.parametrize(
        "m1",
        ["x", "1_0", "\u0663", " 3"],
        ids=["word", "underscore", "arabic_indic", "space"],
    )
    def test_outside_edge_list_grammar(self, m1):
        result = run(["joined-cycles", m1, "2"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"usage error: argument m1: invalid int value: {m1!r}\n"

    # m1 + m2 or 2 * m2 has 4,301 digits, one more than Python will print
    @pytest.mark.parametrize(
        "m1, m2", [("9" * 4300, "1"), ("2", "9" * 4300)], ids=["m1", "m2"]
    )
    def test_unprintable_sum_exits_2(self, m1, m2):
        result = run(["joined-cycles", m1, m2])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "joined-cycles guard" in result.stderr

    # the grammar takes them, int() does not: over 4,300 digits
    @pytest.mark.parametrize(
        "argv",
        [
            ["joined-cycles", "9" * 4301, "1"],
            ["joined-cycles", "2", "0" * 5000 + "3"],
            ["kuramoto-support", "g.txt", "--seed", "9" * 4301],
        ],
        ids=["m1", "m2_leading_zeros", "seed"],
    )
    def test_oversized_argument_named_by_digit_count(self, argv):
        result = run(argv)
        assert result.exit_code == 1
        assert result.stdout == ""
        digits = max(len(a) for a in argv)
        assert result.stderr.endswith(f": {digits}-digit integer is too long\n")
        assert len(result.stderr.encode()) < 200

    def test_unprintable_sum_exits_2_through_main(self):
        result = _adjpoly("joined-cycles", "9" * 4300, "1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "joined-cycles guard" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("m2", ["6999", "1000000000"])
    def test_over_bound_exits_before_counting(self, m2):
        start = time.perf_counter()
        result = run(["joined-cycles", "2", m2])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"m1 + m2 = {2 + int(m2)} (bound 7000)" in result.stderr


class TestLongIntegersNotEchoed:
    """A printable int of over 20 digits is named by its digit count."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["joined-cycles", "9" * 4300, "1"], 2),
            (["kuramoto-support", "C4", "--facet", "9" * 4300], 1),
            (["kuramoto-support", "C4", "--facet", "-" + "9" * 4300], 1),
            (["kuramoto-support", "C4", "--seed", "9" * 4300], 1),
        ],
        ids=["joined_cycles", "facet", "negative_facet", "seed"],
    )
    def test_stderr_stays_short(self, c4_file, argv, code):
        result = run([c4_file if a == "C4" else a for a in argv])
        assert result.exit_code == code
        assert result.stdout == ""
        assert "<4300-digit int>" in result.stderr
        assert len(result.stderr.encode()) <= 200

    @pytest.mark.parametrize(
        "value, text",
        [
            (10**20 - 1, "9" * 20),
            (-(10**20 - 1), "-" + "9" * 20),
            (10**20, "<21-digit int>"),
            (-(10**20), "-<21-digit int>"),
            (10**4300, "<int too long to print>"),
            ((10**20,), "(<21-digit int>,)"),
            (
                (2, (-(10**20), 10**4300)),
                "(2, (-<21-digit int>, <int too long to print>))",
            ),
            ("9" * 30, repr("9" * 30)),
            # 40 characters, but a repr of 162 bytes
            ("\x01" * 40, repr("\x01" * 11) + "... (40 characters)"),
        ],
        ids=[
            "20_digits",
            "minus_20",
            "21_digits",
            "minus_21",
            "unprintable",
            "tuple",
            "nested_tuple",
            "str",
            "wide_str",
        ],
    )
    def test_show(self, value, text):
        assert show(value) == text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n2 {big}\n2 {big}\n", "duplicate edge (2, <4300-digit int>)"),
            ("1 2\n{big} {big}\n", "line 2: self-loop at vertex <4300-digit int>"),
            ("1 2\n1 -{big}\n", "line 2: labels must be >= 1, got -<4300-digit int>"),
            (
                "1 2 {big}\n",
                "line 1: expected 'u v', got '1 2 {nines}'... (4304 characters)",
            ),
            (
                "1 x{big}\n",
                "line 1: non-integer label in '1 x{nines}9'... (4303 characters)",
            ),
            # characters that take 4 to 10 bytes of repr each
            (
                "1 2" + "\U000e0001" * 4300 + "\n",
                f"line 1: non-integer label in {'1 2' + chr(0xE0001) * 4!r}"
                "... (4303 characters)",
            ),
            (
                "1 2" + "\x01" * 4300 + "\n",
                f"line 1: non-integer label in {'1 2' + chr(1) * 10!r}"
                "... (4303 characters)",
            ),
            (
                "1 x" + "\U0001f600" * 4300 + "\n",
                f"line 1: non-integer label in {'1 x' + chr(0x1F600) * 10!r}"
                "... (4303 characters)",
            ),
        ],
        ids=[
            "duplicate_edge",
            "self_loop",
            "negative_label",
            "three_tokens",
            "non_integer",
            "tag_characters",
            "control_characters",
            "emoji",
        ],
    )
    def test_edge_list_stderr_stays_short(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text.format(big="9" * 4300), encoding="utf-8")
        result = run(["count", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        # a long line is shown by its first 40 characters, or fewer when
        # their repr would pass 48 bytes
        assert result.stderr == f"error: {message.format(nines='9' * 36)}\n"
        assert len(result.stderr.encode()) <= 200


class TestKuramotoSupport:
    def test_unmixed_with_lift(self, c4_file):
        result = run(["kuramoto-support", c4_file])
        lines = result.stdout.splitlines()
        assert len(lines) == 9
        assert "0 0 0 0" in lines  # origin carries lift 0
        assert all(len(line.split()) == 4 for line in lines)

    def test_facet_subsystem(self, c4_file):
        result = run(["kuramoto-support", c4_file, "--facet", "0"])
        lines = result.stdout.splitlines()
        assert len(lines) == 5  # 4 facet points + origin, no lift column
        assert all(len(line.split()) == 3 for line in lines)

    def test_facet_index_out_of_range(self, c4_file):
        assert run(["kuramoto-support", c4_file, "--facet", "99"]).exit_code == 1

    def test_homogenize(self, c4_file):
        result = run(["kuramoto-support", c4_file, "--homogenize"])
        lines = result.stdout.splitlines()
        assert lines[0] == "6 3"
        assert len(lines) == 8
        assert lines[-1] == "-1 -1 -1 -1 -1 -1"

    def test_homogenize_conflicts(self, c4_file):
        assert (
            run(["kuramoto-support", c4_file, "--homogenize", "--facet", "0"]).exit_code
            == 1
        )
        assert (
            run(["kuramoto-support", c4_file, "--homogenize", "--seed", "1"]).exit_code
            == 1
        )

    @pytest.mark.parametrize("seed", ["-7", str(1 << 64)])
    @pytest.mark.parametrize("mode", [[], ["--facet", "0"]], ids=["unmixed", "facet"])
    def test_seed_outside_u64_exits_1(self, c4_file, mode, seed):
        # random.Random seeds with |seed|: -7 would print seed 7's column
        result = run(["kuramoto-support", c4_file, *mode, "--seed", seed])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert f"seed {seed} outside 0..2^64-1" in result.stderr

    @pytest.mark.parametrize("flag", ["--facet", "--seed"])
    def test_int_options_outside_edge_list_grammar(self, c4_file, flag):
        result = run(["kuramoto-support", c4_file, flag, "1_0"])
        assert result.exit_code == 1
        assert result.stderr == (
            f"usage error: argument {flag}: invalid int value: '1_0'\n"
        )

    def test_seed_checked_before_graph(self, c4_file, monkeypatch):
        def no_enumeration(g):
            raise AssertionError("facets enumerated before the seed check")

        monkeypatch.setattr(cli.facets_mod, "enumerate_all_facets", no_enumeration)
        result = run(["kuramoto-support", c4_file, "--facet", "0", "--seed", "-7"])
        assert result.stderr == "error: seed -7 outside 0..2^64-1\n"
        # before an unreadable file and an out-of-range --facet, too
        result = run(["kuramoto-support", "/nonexistent", "--facet", "99", "--seed", "-7"])
        assert result.stderr == "error: seed -7 outside 0..2^64-1\n"

    def test_negative_facet_checked_before_graph(self, tmp_path):
        # C41 trips the sign-search guard (exit 2) once its graph is read
        c41 = tmp_path / "c41.txt"
        c41.write_text("".join(f"{i} {i % 41 + 1}\n" for i in range(1, 42)))
        for path in (str(c41), "/nonexistent"):
            result = run(["kuramoto-support", path, "--facet", "-1"])
            assert result.exit_code == 1
            assert result.stdout == ""
            assert result.stderr == "error: --facet -1 must be >= 0\n"
        # the seed is still checked first
        result = run(["kuramoto-support", str(c41), "--facet", "-1", "--seed", "-7"])
        assert result.stderr == "error: seed -7 outside 0..2^64-1\n"

    @pytest.mark.parametrize("seed", ["0", str((1 << 64) - 1)])
    def test_seed_range_ends_accepted(self, c4_file, seed):
        result = run(["kuramoto-support", c4_file, "--seed", seed])
        assert result.exit_code == 0
        assert all(len(line.split()) == 5 for line in result.stdout.splitlines())

    def test_out_file(self, c4_file, tmp_path):
        target = tmp_path / "support.txt"
        result = run(["kuramoto-support", c4_file, "--out", str(target)])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert target.read_text() == run(["kuramoto-support", c4_file]).stdout

    def test_out_unwritable(self, c4_file, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        result = run(["kuramoto-support", c4_file, "--out", str(target)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot write {target}: ")

    def test_seed_deterministic(self, c4_file):
        first = run(["kuramoto-support", c4_file, "--seed", "42"])
        second = run(["kuramoto-support", c4_file, "--seed", "42"])
        other = run(["kuramoto-support", c4_file, "--seed", "43"])
        assert first.stdout == second.stdout
        assert first.stdout != other.stdout
        assert all(len(line.split()) == 5 for line in first.stdout.splitlines())


class TestErrorsAndFlags:
    def test_missing_file(self):
        result = run(["count", "/nonexistent/graph.txt"])
        assert result.exit_code == 1
        assert result.stderr

    def test_invalid_graph(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n")
        assert run(["count", str(bad)]).exit_code == 1

    # a label that fits the grammar but not int(): the message names its
    # digit count and does not echo the line
    def test_oversized_label_through_main(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("1 2\n1 " + "9" * 4301 + "\n")
        result = _adjpoly("count", str(big))
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: line 2: 4301-digit integer is too long\n"

    def test_unknown_flag_named(self, c4_file):
        result = run(["count", c4_file, "--bogus"])
        assert result.exit_code == 1
        assert "--bogus" in result.stderr

    def test_unknown_command(self):
        assert run(["frobnicate"]).exit_code == 1

    def test_quiet_suppresses_text(self, c4_file):
        assert run(["--quiet", "count", c4_file]).stdout == ""
        assert run(["count", c4_file, "--quiet"]).stdout == ""

    def test_quiet_keeps_json_and_exports(self, c4_file):
        assert run(["count", c4_file, "--json", "--quiet"]).stdout
        assert run(["kuramoto-support", c4_file, "--quiet"]).stdout

    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], "usage: adjpoly [-h]"), (["count", "--help"], "usage: adjpoly count")],
        ids=["main", "count"],
    )
    def test_help_returned_not_printed(self, argv, usage, capsys):
        result = run(argv)
        assert capsys.readouterr() == ("", "")
        assert result.exit_code == 0
        assert result.stdout.startswith(usage)
        assert result.stderr == ""

    def test_help_on_command_line_unchanged(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        result = _adjpoly("--help")
        assert result.returncode == 0
        assert result.stdout == run(["--help"]).stdout
        assert result.stderr == ""

    def test_diagnostics_only_on_stderr(self, c4_file):
        ok = run(["count", c4_file])
        assert ok.stderr == ""
        bad = run(["count", "/nonexistent"])
        assert bad.stdout == ""


class TestParserReuse:
    @pytest.fixture()
    def argvs(self, c4_file):
        commands = ["facets", "count", "bipartite", "oracle-check", "simplicial"]
        return [
            *([command, c4_file] for command in commands),
            ["joined-cycles", "2", "2"],
            ["kuramoto-support", c4_file],
            ["--quiet", "count", c4_file],
            ["count", c4_file, "--quiet"],
            ["facets", c4_file, "--json"],
            ["count", c4_file, "--json"],
            ["kuramoto-support", c4_file, "--seed", "5"],
            ["kuramoto-support", c4_file, "--facet", "1"],
            ["kuramoto-support", c4_file, "--homogenize"],
            ["--help"],
            *([command, "--help"] for command in cli._COMMANDS),
            [],
            ["frobnicate"],
            ["count"],
            ["joined-cycles", "x", "2"],
            ["kuramoto-support", c4_file, "--homogenize", "--facet", "0"],
            ["count", c4_file, "--bogus"],
        ]

    @pytest.fixture()
    def fresh(self, argvs, monkeypatch):
        # the reference: each call builds its own parser
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            return {tuple(argv): run(argv) for argv in argvs}

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("order", ["forward", "reversed", "interleaved"])
    def test_equals_fresh_parser(self, argvs, fresh, order):
        if order == "reversed":
            argvs = argvs[::-1]
        elif order == "interleaved":
            argvs = [a for pair in zip(argvs, argvs[::-1]) for a in pair]
        for argv in argvs:
            assert run(argv) == fresh[tuple(argv)], argv

    def test_threads_equal_serial(self, argvs, fresh):
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, argvs * 3))
        assert results == [fresh[tuple(argv)] for argv in argvs * 3]


class TestImportCost:
    def test_cli_import_leaves_out_dataclasses_and_inspect(self):
        # the test modules import dataclasses themselves, so a fresh
        # interpreter tells what importing the command line loads
        env = dict(os.environ, PYTHONPATH=str(Path(adjpoly.__file__).parents[1]))
        code = (
            "import sys, adjpoly.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
