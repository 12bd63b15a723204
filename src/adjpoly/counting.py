"""The joined-cycles facet formula and the facet census.

The formula counts the facets of a graph made of an even and an odd cycle
sharing one edge, through binomial counts of alternating sign vectors;
the census counts the facets of any graph class by class.
"""

from __future__ import annotations

import dataclasses
from math import comb

from .errors import DomainError
from .facets import enumerate_facet_classes
from .graphs import Graph


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
    """Per-class facet counts, their total and its bound beta * 2^(N-1).

    Each facet of a class comes from a distinct sign vector in
    {-1,+1}^(N-1), so no class exceeds 2^(N-1) facets and the total stays
    within the bound.
    """
    records = tuple(
        ClassRecord(corank=cls.subgraph.cyclomatic_number(), size=len(cls.facets))
        for cls in enumerate_facet_classes(g)
    )
    beta = len(records)
    total = sum(r.size for r in records)
    return FacetCensus(records=records, beta=beta, total=total, bound=beta << g.n)
