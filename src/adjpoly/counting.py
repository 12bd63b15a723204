"""The joined-cycles facet formula and the facet census.

The formula counts the facets of a graph made of an even and an odd cycle
sharing one edge, through binomial counts of alternating sign vectors, as
a (corank 0, corank 1) pair; the census gives any graph's facets as one
(corank, size) pair per class.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, TooLarge
from .facets import enumerate_facet_classes
from .graphs import Graph

# the counts then stay under Python's 4,300-digit limit for printing an int
JOINED_CYCLES_MAX_SUM = 7000


def joined_cycles_count(m1: int, m2: int) -> tuple[int, int]:
    """Facet counts (corank0, corank1) for a 2*m1-cycle and a
    (2*m2+1)-cycle sharing an edge.

    corank-0 classes are the 2*m1 - 1 spanning trees obtained by deleting
    the shared edge plus one more even-cycle edge, each of size
    C(2*m1-2, m1-1) * C(2*m2, m2); corank-1 classes are the 2*m2 subgraphs
    keeping the even cycle, each of size C(2*m1-1, m1) * C(2*m2, m2).
    m1 and m2 must be ints (not bools); anything else raises DomainError.
    A pair in the domain with m1 + m2 > JOINED_CYCLES_MAX_SUM raises
    TooLarge before any binomial is computed.
    """
    # bool is an int subclass and 2.0 == 2, so compare types exactly
    for name, value in (("m1", m1), ("m2", m2)):
        if type(value) is not int:
            raise DomainError(f"{name} must be an int, got {value!r}")
    if m1 < 2:
        raise DomainError(f"m1 must be >= 2, got {m1}")
    if m2 < 1:
        raise DomainError(f"m2 must be >= 1, got {m2}")
    if m1 + m2 > JOINED_CYCLES_MAX_SUM:
        raise TooLarge(
            f"joined-cycles guard: m1 + m2 = {m1 + m2} "
            f"(bound {JOINED_CYCLES_MAX_SUM}); the counts would need "
            f"C({2 * m1 - 1}, {m1}) * C({2 * m2}, {m2})"
        )
    odd_factor = comb(2 * m2, m2)
    corank0 = (2 * m1 - 1) * comb(2 * m1 - 2, m1 - 1) * odd_factor
    corank1 = (2 * m2) * comb(2 * m1 - 1, m1) * odd_factor
    return corank0, corank1


def facet_census(g: Graph) -> tuple[tuple[int, int], ...]:
    """One (corank, size) pair per facet class, in enumeration order.

    beta is the number of pairs and the total the sum of the sizes.  Each
    facet of a class comes from a distinct sign vector in {-1,+1}^(N-1),
    so no size exceeds 2^(N-1) and the total stays within the bound
    beta * 2^(N-1).
    """
    return tuple(
        (cls.subgraph.cyclomatic_number(), len(cls.facets))
        for cls in enumerate_facet_classes(g)
    )
