"""Spans and work counters recorded around calls into the package.

The package is not modified: `Tracer.install` replaces each traced public
function at every module attribute that binds it, because modules import
functions by name and a call made through an unwrapped binding would be
missed.  Each wrapper records a span (name, start, end, parent); a span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs timed as layers, named "<module>.<function>"
TARGETS = (
    ("cli", "run"),
    ("graphs", "parse_edge_list"),
    ("graphs", "enumerate_maximal_bipartite_subgraphs"),
    ("facets", "build_cycle_system"),
    ("facets", "enumerate_sign_vectors"),
    ("facets", "enumerate_facet_classes"),
    ("facets", "enumerate_all_facets"),
    ("geometry", "verify_facet"),
    ("geometry", "brute_force_facets"),
    ("linalg", "integer_rank"),
    ("linalg", "solve_neg_ones"),
    ("linalg", "primitive"),
    ("counting", "facet_census"),
    ("kuramoto", "homogenization_data"),
)

# root span of a traced pass; its self time is the benchmark's own loop
HARNESS = "bench.harness"

# bindings each workload calls through, as "<module>.<attribute>"; a traced
# pass fails if one of them records no call (a wrapper on a stale binding)
EXERCISED = {
    "enumerate": (
        "cli.run", "cli.parse_edge_list", "facets.enumerate_facet_classes",
        "facets.enumerate_maximal_bipartite_subgraphs", "facets.build_cycle_system",
        "facets.enumerate_sign_vectors", "facets.verify_facet",
        "kuramoto.homogenization_data", "kuramoto.enumerate_all_facets",
        "linalg.integer_rank", "linalg.primitive",
    ),
    "scan": (
        "cli.run", "cli.parse_edge_list", "cli.enumerate_maximal_bipartite_subgraphs",
        "graphs.enumerate_maximal_bipartite_subgraphs",
    ),
    "census": (
        "cli.run", "cli.parse_edge_list", "counting.facet_census",
        "counting.enumerate_facet_classes", "facets.enumerate_maximal_bipartite_subgraphs",
        "facets.build_cycle_system", "facets.enumerate_sign_vectors", "facets.verify_facet",
        "linalg.integer_rank", "linalg.primitive",
    ),
    "oracle": (
        "cli.run", "cli.parse_edge_list", "facets.enumerate_all_facets",
        "facets.enumerate_facet_classes", "facets.enumerate_maximal_bipartite_subgraphs",
        "facets.build_cycle_system", "facets.enumerate_sign_vectors", "facets.verify_facet",
        "geometry.brute_force_facets", "geometry.verify_facet", "linalg.solve_neg_ones",
        "linalg.primitive", "linalg.integer_rank",
    ),
}


def _scan_work(args, result, counts):
    counts["graphs.bipartitions_scanned"] += (1 << (args[0].vertex_count - 1)) - 1
    counts["graphs.subgraphs_found"] += len(result)


def _sign_work(args, result, counts):
    counts["facets.sign_vectors_found"] += len(result)


def _oracle_work(args, result, counts):
    counts["geometry.oracle_facets"] += len(result)


def _output_work(args, result, counts):
    counts["cli.out_bytes"] += len(result.stdout.encode())


# exact work counts taken from a traced call's arguments and result
WORK = {
    "graphs.enumerate_maximal_bipartite_subgraphs": _scan_work,
    "facets.enumerate_sign_vectors": _sign_work,
    "geometry.brute_force_facets": _oracle_work,
    "cli.run": _output_work,
}


class Tracer:
    """Keeps the spans and counts of one traced pass in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.binding_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._replaced: list[tuple[object, str, object]] = []

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent])

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def _wrap(self, fn, name: str, binding: str):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.binding_calls[binding] += 1
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if work is not None:
                work(args, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded package modules."""
        modules = {
            key.removeprefix("adjpoly."): module
            for key, module in list(sys.modules.items())
            if key == "adjpoly" or key.startswith("adjpoly.")
        }
        for home, func in TARGETS:
            fn = getattr(modules[home], func)
            name = f"{home}.{func}"
            for short, module in modules.items():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        binding = f"{short}.{attr}"
                        setattr(module, attr, self._wrap(fn, name, binding))
                        self._replaced.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._replaced):
            setattr(module, attr, fn)
        self._replaced.clear()

    def take(self) -> dict:
        """Root span time, per-name self time and calls, work and binding counts; then reset."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        root_ns = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_ns[name] += end - start - covered[i]
            calls[name] += 1
            if parent < 0:
                root_ns += end - start
        out = {
            "root_ns": root_ns,
            "self_ns": dict(self_ns),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "binding_calls": dict(self.binding_calls),
        }
        self.spans.clear()
        self.counts.clear()
        self.binding_calls.clear()
        return out
