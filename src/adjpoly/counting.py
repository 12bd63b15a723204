"""Closed-form facet counts and the census that cross-checks them.

The binomial identities count sign vectors of alternating-sum constraints;
the joined-cycles formula composes them for a graph made of an even and
an odd cycle sharing one edge.
"""

from __future__ import annotations

import dataclasses
from math import comb

from .errors import DomainError, InternalInconsistency
from .facets import enumerate_facet_classes
from .graphs import Graph


def count_sum_zero(n: int) -> int:
    """Number of d in {-1,+1}^(2n) with alternating sum 0: C(2n, n)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return comb(2 * n, n)


def count_sum_two(n: int) -> int:
    """Number of d in {-1,+1}^(2n) with alternating sum 2: C(2n, n-1)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return comb(2 * n, n - 1)


@dataclasses.dataclass(frozen=True)
class JoinedCycleCounts:
    corank0: int
    corank1: int

    @property
    def total(self) -> int:
        return self.corank0 + self.corank1


def joined_cycles_count(m1: int, m2: int) -> JoinedCycleCounts:
    """Facet counts for a 2*m1-cycle and a (2*m2+1)-cycle sharing an edge.

    corank-0 classes are the 2*m1 - 1 spanning trees obtained by deleting
    the shared edge plus one more even-cycle edge, each of size
    C(2*m1-2, m1-1) * C(2*m2, m2); corank-1 classes are the 2*m2 subgraphs
    keeping the even cycle, each of size C(2*m1-1, m1) * C(2*m2, m2).
    """
    if m1 < 2:
        raise DomainError(f"m1 must be >= 2, got {m1}")
    if m2 < 1:
        raise DomainError(f"m2 must be >= 1, got {m2}")
    odd_factor = comb(2 * m2, m2)
    corank0 = (2 * m1 - 1) * comb(2 * m1 - 2, m1 - 1) * odd_factor
    corank1 = (2 * m2) * comb(2 * m1 - 1, m1) * odd_factor
    return JoinedCycleCounts(corank0=corank0, corank1=corank1)


def even_cycle_facet_count(k: int) -> int:
    """Facet count of the configuration of an even cycle C_{2k}: C(2k, k)."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return comb(2 * k, k)


def cycle_graph(length: int) -> Graph:
    """The cycle 1 - 2 - ... - length - 1."""
    if length < 3:
        raise DomainError(f"cycle length must be >= 3, got {length}")
    edges = [(i, i + 1) for i in range(1, length)] + [(1, length)]
    return Graph(length, edges)


def joined_cycles_graph(m1: int, m2: int) -> Graph:
    """The even/odd joined-cycle graph with a fixed labeling.

    The shared edge is {1, 2}; the even cycle runs 1-2-3-...-(2*m1)-1 and
    the odd cycle closes 2-(2*m1+1)-...-(2*m1+2*m2-1)-1.
    """
    if m1 < 2:
        raise DomainError(f"m1 must be >= 2, got {m1}")
    if m2 < 1:
        raise DomainError(f"m2 must be >= 1, got {m2}")
    even_n = 2 * m1
    edges = [(i, i + 1) for i in range(1, even_n)] + [(1, even_n)]
    outer = list(range(even_n + 1, even_n + 2 * m2))
    chain = [2] + outer + [1]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(even_n + 2 * m2 - 1, edges)


@dataclasses.dataclass(frozen=True)
class ClassRecord:
    corank: int
    size: int


@dataclasses.dataclass(frozen=True)
class FacetCensus:
    records: tuple[ClassRecord, ...]
    beta: int
    total: int
    bound: int

    def total_by_corank(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.records:
            out[r.corank] = out.get(r.corank, 0) + r.size
        return out

    def subgraphs_by_corank(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.records:
            out[r.corank] = out.get(r.corank, 0) + 1
        return out


def facet_census(g: Graph) -> FacetCensus:
    """Per-class facet counts with the 2^(N-1) class bound asserted."""
    classes = enumerate_facet_classes(g)
    class_bound = 1 << g.n
    records = []
    total = 0
    for index, cls in enumerate(classes):
        size = len(cls.facets)
        if size > class_bound:
            raise InternalInconsistency(
                f"class {index} has {size} facets > {class_bound}"
            )
        records.append(ClassRecord(corank=cls.subgraph.cyclomatic_number(), size=size))
        total += size
    beta = len(records)
    bound = beta * class_bound
    if total > bound:
        raise InternalInconsistency(f"total {total} exceeds bound {bound}")
    return FacetCensus(records=tuple(records), beta=beta, total=total, bound=bound)
