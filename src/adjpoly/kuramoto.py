"""Support-level exports consumed by downstream polynomial-system solvers.

The unmixed algebraic Kuramoto system of a graph has every equation
supported on the configuration points plus the origin (the constant term).
This module exports those supports as sorted tuples of exponent vectors,
the 0/1 homotopy lift as a column, and the rows of the facet-normal matrix
V; the minimum vector h is -1 in every entry, since symmetric edge
polytopes are reflexive (see Facet).  Coefficients are the solver's
concern and are not modeled beyond an optional seeded pseudorandom column.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InternalInconsistency, show
from .facets import enumerate_all_facets
from .geometry import Facet, Point, edge_point, points
from .graphs import Graph


def _with_origin(points: Sequence[Point], dim: int) -> tuple[Point, ...]:
    return tuple(sorted(set(points) | {(0,) * dim}))


def unmixed_support(g: Graph) -> tuple[Point, ...]:
    """Configuration points plus the origin: 2m + 1 sorted exponent vectors."""
    return _with_origin(points(g), g.n)


def homotopy_lift(support: Sequence[Point]) -> list[int]:
    """Lift value 0 on the origin, 1 on every other exponent vector."""
    return [1 if any(v) else 0 for v in support]


def facet_subsystem_support(g: Graph, facet: Facet) -> tuple[Point, ...]:
    """Support of the subsystem picked out by a facet: its points plus 0."""
    encoded = points(g)
    return _with_origin([encoded[i] for i in facet.point_indices], g.n)


def homogenization_data(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The rows of V over the full facet enumeration, in enumeration order.

    Row i is facet i's primitive normal alpha_i, the potentials of vertices
    2..N.  Soundness of the lift is asserted: every configuration point
    attains -1 under some row, so V.a + 1 has a zero for it.
    """
    rows = tuple(f.normal for f in enumerate_all_facets(g))

    # row r takes r[t] - r[h] at the point of (t, h): vertex 1 has potential 0
    padded = [(0, 0) + row for row in rows]
    for t, h in g.directed_edges:
        if min(p[t] - p[h] for p in padded) != -1:
            raise InternalInconsistency(
                f"support point {edge_point(g.n, t, h)} does not sit on any facet"
            )
    return rows


def support_file_text(
    support: Sequence[Point],
    lifts: Sequence[int] | None = None,
    coefficients: Sequence[Fraction] | None = None,
) -> str:
    """One exponent vector per line, optional trailing lift and coefficient."""
    lines = []
    for idx, vector in enumerate(support):
        parts = [str(c) for c in vector]
        if lifts is not None:
            parts.append(str(lifts[idx]))
        if coefficients is not None:
            parts.append(str(coefficients[idx]))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def homogenization_file_text(rows: Sequence[Sequence[int]], dim: int) -> str:
    """Header "m n", then the rows of V, then the h row of one -1 per row."""
    lines = [f"{len(rows)} {dim}"]
    for row in rows:
        lines.append(" ".join(str(c) for c in row))
    lines.append(" ".join(["-1"] * len(rows)))
    return "\n".join(lines) + "\n"


def check_seed(seed: int) -> None:
    """Raise DomainError unless the seed lies in 0..2^64-1.

    random.Random seeds with |seed|, so a negative seed would repeat the
    column of its absolute value.
    """
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed {show(seed)} outside 0..2^64-1")


def seeded_coefficients(count: int, seed: int) -> list[Fraction]:
    """Deterministic nonzero rational coefficients for downstream solvers.

    The seed must pass check_seed.
    """
    check_seed(seed)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        num = rng.randint(1, 999) * rng.choice((-1, 1))
        out.append(Fraction(num, rng.randint(1, 999)))
    return out
