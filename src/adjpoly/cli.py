"""Command-line front end.

Subcommands cover the full pipeline: facet enumeration (`facets`), the
facet census (`count`), maximal bipartite subgraphs (`bipartite`), the
fast-path/oracle comparison (`oracle-check`), the simpliciality test
(`simplicial`), closed-form joined-cycle counts (`joined-cycles`), and
solver support exports (`kuramoto-support`).

Exit codes: 0 success, 1 input/usage error, 2 guard rail exceeded,
3 internal inconsistency (including an oracle mismatch).  JSON mode emits
exactly one document on stdout; diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from itertools import compress
from pathlib import Path
from typing import NamedTuple

from . import counting, facets as facets_mod, geometry, kuramoto
from .errors import AdjPolyError, InternalInconsistency, TooLarge, show
from .graphs import (
    _LABEL,
    Graph,
    enumerate_maximal_bipartite_subgraphs,
    has_even_cycle,
    parse_edge_list,
)

JSON_VERSION = "v1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARD = 2
EXIT_INTERNAL = 3


class CommandResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def print_help(self, file=None) -> None:
        # --help text belongs in the result's stdout, not in sys.stdout
        raise _HelpRequested(self.format_help())


def _int(text: str) -> int:
    # the edge-list grammar: int() would also take "1_0", " 3" and non-ASCII digits
    if not _LABEL.fullmatch(text):
        raise ValueError(text)
    try:
        return int(text)
    except ValueError:  # past the interpreter's int string limit
        size = len(text.lstrip("-"))
        raise argparse.ArgumentTypeError(f"{size}-digit integer is too long") from None


# argparse names the type in "invalid int value: 'x'"
_int.__name__ = "int"


# parse_args builds a fresh Namespace per call and never mutates the parser
@functools.cache
def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    # SUPPRESS keeps a subparser's default from clobbering a --quiet that
    # was already consumed by the main parser
    common.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="suppress text output on stdout",
    )
    parser = _Parser(prog="adjpoly", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("facets", parents=[common], help="enumerate all facets")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("count", parents=[common], help="facet census")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "bipartite", parents=[common], help="maximal bipartite subgraphs"
    )
    p.add_argument("file")

    p = sub.add_parser(
        "oracle-check",
        parents=[common],
        help="compare enumeration against the brute-force oracle",
    )
    p.add_argument("file")

    p = sub.add_parser("simplicial", parents=[common], help="simpliciality test")
    p.add_argument("file")

    p = sub.add_parser(
        "joined-cycles", parents=[common], help="closed-form joined-cycle counts"
    )
    p.add_argument("m1", type=_int)
    p.add_argument("m2", type=_int)

    p = sub.add_parser(
        "kuramoto-support", parents=[common], help="solver support exports"
    )
    p.add_argument("file")
    p.add_argument("--facet", type=_int, default=None, metavar="INDEX")
    p.add_argument("--homogenize", action="store_true")
    p.add_argument("--seed", type=_int, default=None, metavar="U64")
    p.add_argument("--out", default=None, metavar="PATH")

    return parser


def _load_graph(path: str) -> Graph:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise AdjPolyError(f"cannot read {path}: {exc}") from None
    return parse_edge_list(data)


# bytes.translate table taking the digits "0" and "1" to the bytes 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> bytes:
    """Bit k of mask as byte k (0 or 1), lowest first: a compress selector."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)


def _bipartition_writer(vertex_count: int):
    """Return the writer of a bipartition's two lines, "  V+ = 1 3" and
    "  V- = 2 4", from its plus-side mask over vertices 1..vertex_count.

    Each side is read one byte (8 vertices) at a time: the text of a byte
    is built the first time it appears, once per graph, and a side joins
    vertex_count // 8 + 1 of them.
    """
    labels = [f" {v}" for v in range(vertex_count + 1)]
    windows = [255 << k for k in range(0, vertex_count + 1, 8)]
    everyone = (2 << vertex_count) - 2
    # keyed by mask & window, whose bits name both the byte and its place;
    # a text puts a space before each label, and no side is empty
    pieces = {0: ""}

    def write(plus_mask: int) -> str:
        minus_mask = everyone ^ plus_mask
        plus = minus = ""
        for window in windows:
            part = plus_mask & window
            text = pieces.get(part)
            if text is None:
                text = pieces[part] = "".join(compress(labels, _bits(part)))
            plus += text
            part = minus_mask & window
            text = pieces.get(part)
            if text is None:
                text = pieces[part] = "".join(compress(labels, _bits(part)))
            minus += text
        return f"  V+ ={plus}\n  V- ={minus}"

    return write


def _cmd_facets(args) -> tuple[int, str]:
    g = _load_graph(args.file)
    classes = facets_mod.enumerate_facet_classes(g)
    total = sum(len(c.facets) for c in classes)
    if args.json:
        # every value is an int and every key fixed ASCII, so str(int) is its
        # JSON text and these f-strings give json.dumps(doc)'s bytes; points
        # are encoded once per graph and subgraph edges once per class
        points = [json.dumps(p) for p in geometry.points(g)]
        dim = g.n - 1
        class_texts = []
        for index, cls in enumerate(classes):
            corank = cls.subgraph.corank
            edges = json.dumps(list(compress(g.edges, _bits(cls.subgraph.cut))))
            tail = f'], "subgraph_edges": {edges}, "dim": {dim}, "corank": {corank}}}'
            facet_texts = [
                f'{{"normal": [{", ".join(map(str, f.normal))}], "points": ['
                + ", ".join([points[i] for i in f.point_indices])
                + tail
                for f in cls.facets
            ]
            class_texts.append(
                f'{{"subgraph_index": {index}, "class_size": {len(cls.facets)}, '
                f'"corank": {corank}, "facets": [{", ".join(facet_texts)}]}}'
            )
        return EXIT_OK, (
            f'{{"version": "{JSON_VERSION}", "vertex_count": {g.vertex_count}, '
            f'"edge_count": {g.m}, "classes": [{", ".join(class_texts)}], '
            f'"total": {total}}}\n'
        )
    lines = [f"graph: N={g.vertex_count} m={g.m}"]
    bipartition = _bipartition_writer(g.vertex_count)
    for index, cls in enumerate(classes):
        b = cls.subgraph
        lines.append(f"class {index}: corank={b.corank} size={len(cls.facets)}")
        lines.append(bipartition(b.plus_mask))
        for f in cls.facets:
            lines.append("  normal " + " ".join(str(c) for c in f.normal))
    lines.append(f"total {total}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_count(args) -> tuple[int, str]:
    g = _load_graph(args.file)
    classes = counting.facet_census(g)
    beta = len(classes)
    total = sum(size for _, size in classes)
    if args.json:
        doc = {
            "version": JSON_VERSION,
            "beta": beta,
            "classes": [{"corank": c, "size": size} for c, size in classes],
            "total": total,
            "bound": beta << g.n,
        }
        return EXIT_OK, json.dumps(doc) + "\n"
    lines = [f"beta {beta}"]
    subgraphs, facets = Counter(), Counter()
    for idx, (corank, size) in enumerate(classes):
        lines.append(f"class {idx}: corank={corank} size={size}")
        subgraphs[corank] += 1
        facets[corank] += size
    for corank in sorted(subgraphs):
        lines.append(
            f"corank {corank}: subgraphs={subgraphs[corank]} facets={facets[corank]}"
        )
    lines.append(f"total {total}")
    lines.append(f"bound {beta << g.n}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_bipartite(args) -> tuple[int, str]:
    g = _load_graph(args.file)
    subs = enumerate_maximal_bipartite_subgraphs(g)
    bipartition = _bipartition_writer(g.vertex_count)
    texts = [f"maximal bipartite subgraphs: {len(subs)}\n"]
    texts += [
        f"subgraph {idx}: edges={b.cut.bit_count()} corank={b.corank}\n"
        f"{bipartition(b.plus_mask)}\n"
        for idx, b in enumerate(subs)
    ]
    return EXIT_OK, "".join(texts)


def _cmd_oracle_check(args) -> tuple[int, str]:
    g = _load_graph(args.file)
    # the oracle's guard is the tighter one: check it before enumerating
    oracle = {f.normal for f in geometry.brute_force_facets(g)}
    fast = {f.normal for f in facets_mod.enumerate_all_facets(g)}
    if fast == oracle:
        return EXIT_OK, f"{len(fast)} == {len(oracle)}\n"
    normal = min(fast ^ oracle)
    where = "enumeration" if normal in fast else "oracle"
    return EXIT_INTERNAL, f"{len(fast)} != {len(oracle)}: {normal} only in the {where}\n"


def _cmd_simplicial(args) -> tuple[int, str]:
    g = _load_graph(args.file)
    # all facets are simplices iff g has no even cycle
    verdict = "no" if has_even_cycle(g) else "yes"
    return EXIT_OK, f"simplicial {verdict}\n"


def _cmd_joined_cycles(args) -> tuple[int, str]:
    corank0, corank1 = counting.joined_cycles_count(args.m1, args.m2)
    return EXIT_OK, f"corank0={corank0} corank1={corank1} total={corank0 + corank1}\n"


def _cmd_kuramoto_support(args) -> tuple[int, str]:
    if args.homogenize and args.facet is not None:
        raise _UsageError("--homogenize cannot be combined with --facet")
    if args.homogenize and args.seed is not None:
        raise _UsageError("--seed requires a support export, not --homogenize")
    if args.seed is not None:
        kuramoto.check_seed(args.seed)
    if args.facet is not None and args.facet < 0:
        raise AdjPolyError(f"--facet {show(args.facet)} must be >= 0")
    g = _load_graph(args.file)
    if args.homogenize:
        rows = kuramoto.homogenization_data(g)
        text = kuramoto.homogenization_file_text(rows, g.n)
    else:
        if args.facet is not None:
            all_facets = facets_mod.enumerate_all_facets(g)
            if not 0 <= args.facet < len(all_facets):
                raise AdjPolyError(
                    f"--facet {show(args.facet)} out of range 0..{len(all_facets) - 1}"
                )
            support = kuramoto.facet_subsystem_support(g, all_facets[args.facet])
            lifts = None
        else:
            support = kuramoto.unmixed_support(g)
            lifts = kuramoto.homotopy_lift(support)
        coeffs = (
            kuramoto.seeded_coefficients(len(support), args.seed)
            if args.seed is not None
            else None
        )
        text = kuramoto.support_file_text(support, lifts=lifts, coefficients=coeffs)
    if args.out is not None:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise AdjPolyError(f"cannot write {args.out}: {exc}") from None
        return EXIT_OK, ""
    return EXIT_OK, text


_COMMANDS = {
    "facets": _cmd_facets,
    "count": _cmd_count,
    "bipartite": _cmd_bipartite,
    "oracle-check": _cmd_oracle_check,
    "simplicial": _cmd_simplicial,
    "joined-cycles": _cmd_joined_cycles,
    "kuramoto-support": _cmd_kuramoto_support,
}


def run(argv: list[str]) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandResult(EXIT_INPUT, "", f"usage error: {exc}\n")
    except _HelpRequested as exc:
        return CommandResult(EXIT_OK, exc.args[0], "")
    try:
        code, out = _COMMANDS[args.command](args)
    except _UsageError as exc:
        return CommandResult(EXIT_INPUT, "", f"usage error: {exc}\n")
    except TooLarge as exc:
        return CommandResult(EXIT_GUARD, "", f"guard exceeded: {exc}\n")
    except InternalInconsistency as exc:
        return CommandResult(EXIT_INTERNAL, "", f"internal inconsistency: {exc}\n")
    except AdjPolyError as exc:
        return CommandResult(EXIT_INPUT, "", f"error: {exc}\n")
    # --quiet drops human-readable text; JSON documents, support exports,
    # and --out files are the product and are never suppressed
    quiet_applies = (
        not getattr(args, "json", False) and args.command != "kuramoto-support"
    )
    if getattr(args, "quiet", False) and quiet_applies:
        out = ""
    return CommandResult(code, out, "")


def main() -> None:
    result = run(sys.argv[1:])
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    sys.exit(result.exit_code)
