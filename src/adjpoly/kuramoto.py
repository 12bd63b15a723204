"""Support-level exports consumed by downstream polynomial-system solvers.

The unmixed algebraic system of a graph has every equation supported on
the configuration points plus the origin (the constant term).  This module
exports those supports, the 0/1 homotopy lift, per-facet subsystem
supports, and the homogenization data (facet-normal matrix V and minimum
vector h); coefficients are the solver's concern and are not modeled
beyond an optional seeded pseudorandom column.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import Sequence

from .errors import InternalInconsistency
from .facets import enumerate_all_facets
from .geometry import Facet, Point, PointConfiguration
from .graphs import Graph


@dataclasses.dataclass(frozen=True)
class SupportSet:
    """Exponent vectors in Z^(N-1), origin included, sorted lexicographically."""

    vectors: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vectors)


def unmixed_support(g: Graph) -> SupportSet:
    """Configuration points plus the origin: 2m + 1 exponent vectors."""
    cfg = PointConfiguration(g)
    origin = (0,) * cfg.dim
    vectors = tuple(sorted(set(cfg.points) | {origin}))
    return SupportSet(vectors=vectors)


def homotopy_lift(s: SupportSet) -> list[tuple[Point, int]]:
    """Lift value 0 on the origin, 1 on every other exponent vector."""
    return [(v, 0 if not any(v) else 1) for v in s.vectors]


def facet_subsystem_support(g: Graph, facet: Facet) -> SupportSet:
    """Support of the subsystem picked out by a facet: its points plus 0."""
    cfg = PointConfiguration(g)
    origin = (0,) * cfg.dim
    vectors = tuple(sorted(set(facet.points(cfg)) | {origin}))
    return SupportSet(vectors=vectors)


@dataclasses.dataclass(frozen=True)
class HomogenizationData:
    """Rows of V are the primitive facet normals; h holds their minima."""

    rows: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]

    @property
    def facet_count(self) -> int:
        return len(self.rows)

    def lifted_exponent(self, point: Point) -> tuple[int, ...]:
        """V . a - h, the exponent of a support point in homogeneous form."""
        return tuple(
            sum(r * x for r, x in zip(row, point)) - h
            for row, h in zip(self.rows, self.offsets)
        )


def homogenization_data(g: Graph) -> HomogenizationData:
    """V and h over the full facet enumeration, in enumeration order.

    Row i is facet i's normal alpha_i, the potentials of vertices 2..N.
    h_i is the minimum of <., alpha_i> over the configuration: -1 for
    every primitive facet normal, which verify_facet asserts as it builds
    each facet (see Facet).  Soundness of the lift is asserted: every
    support point maps to a nonnegative exponent vector, zero somewhere for
    each configuration point and nowhere for the origin.
    """
    cfg = PointConfiguration(g)
    rows = tuple(f.normal for f in enumerate_all_facets(g))
    data = HomogenizationData(rows=rows, offsets=(-1,) * len(rows))

    # row r takes r[t] - r[h] at the point of (t, h): vertex 1 has potential 0
    padded = [(0, 0) + row for row in rows]
    for point, (t, h) in zip(cfg.points, cfg.directed_edges):
        if min(p[t] - p[h] for p in padded) != -1:
            raise InternalInconsistency(
                f"support point {point} does not sit on any facet"
            )
    origin = (0,) * cfg.dim
    if data.rows and min(data.lifted_exponent(origin)) <= 0:
        raise InternalInconsistency("origin must be interior to every facet")
    return data


def support_file_text(
    s: SupportSet,
    lifts: Sequence[int] | None = None,
    coefficients: Sequence[Fraction] | None = None,
) -> str:
    """One exponent vector per line, optional trailing lift and coefficient."""
    lines = []
    for idx, vector in enumerate(s.vectors):
        parts = [str(c) for c in vector]
        if lifts is not None:
            parts.append(str(lifts[idx]))
        if coefficients is not None:
            parts.append(str(coefficients[idx]))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def homogenization_file_text(data: HomogenizationData, dim: int) -> str:
    """Header "m n", then the rows of V, then the h row."""
    lines = [f"{data.facet_count} {dim}"]
    for row in data.rows:
        lines.append(" ".join(str(c) for c in row))
    lines.append(" ".join(str(h) for h in data.offsets))
    return "\n".join(lines) + "\n"


def seeded_coefficients(count: int, seed: int) -> list[Fraction]:
    """Deterministic nonzero rational coefficients for downstream solvers."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        num = rng.randint(1, 999) * rng.choice((-1, 1))
        out.append(Fraction(num, rng.randint(1, 999)))
    return out
