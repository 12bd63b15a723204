"""Exact facet enumeration for adjacency polytopes of connected graphs.

The configuration of a connected graph G on vertices 1..N is the set of
signed edge vectors +-(e_{i-1} - e_{j-1}) in R^(N-1) (the vertex set of
the symmetric edge polytope).  Facets of this configuration correspond to
maximal bipartite subgraphs of G; this package enumerates them through
that correspondence, verifies them against a brute-force geometric oracle,
and exports the support data used by algebraic solvers.
"""

from .counting import facet_census, joined_cycles_count
from .errors import (
    AdjPolyError,
    DomainError,
    InternalInconsistency,
    NotAFacet,
    ParseError,
    TooLarge,
    ValidationError,
    ZeroNormal,
)
from .facets import (
    FacetClass,
    build_cycle_system,
    enumerate_all_facets,
    enumerate_facet_classes,
    enumerate_sign_vectors,
)
from .geometry import (
    Facet,
    brute_force_facets,
    verify_facet,
)
from .graphs import (
    Graph,
    MaxBipartiteSubgraph,
    enumerate_maximal_bipartite_subgraphs,
    has_even_cycle,
    parse_edge_list,
)
from .kuramoto import (
    facet_subsystem_support,
    homogenization_data,
    homotopy_lift,
    unmixed_support,
)

__version__ = "0.1.0"
