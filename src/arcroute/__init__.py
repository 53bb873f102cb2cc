"""Shortest-path strict 2-interval routing schemes for circular-arc graphs.

Build a scheme from an arc model with ``build_scheme``, check it with the
independent ``verify_scheme`` / ``route`` oracles, and probe small graphs
for 1-interval schemes with ``has_shortest_path_1irs``.
"""

from .arc_model import (
    ArcModel,
    intersection_graph,
    is_real,
    parse_model,
    validate_model,
)
from .builder import (
    VertexOrder,
    build_scheme,
    build_vertex_order,
)
from .clique_cycle import (
    CliqueCycle,
    build_clique_cycle,
)
from .errors import (
    ArcRouteError,
    ConstructionError,
    ModelFormatError,
    NotRealCircularArc,
    StructuralSchemeError,
)
from .generator import gen_complete, gen_perturbed_ring, gen_random, gen_ring, gen_wheel
from .graph import Graph, all_pairs_distances
from .oracle import OracleResult, has_shortest_path_1irs
from .ring_order import CyclicOrder, RingInterval
from .scheme import RoutingScheme
from .verifier import (
    IntervalStats,
    VerificationReport,
    interval_stats,
    route,
    verify_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "ArcModel",
    "ArcRouteError",
    "CliqueCycle",
    "ConstructionError",
    "CyclicOrder",
    "Graph",
    "IntervalStats",
    "ModelFormatError",
    "NotRealCircularArc",
    "OracleResult",
    "RingInterval",
    "RoutingScheme",
    "StructuralSchemeError",
    "VerificationReport",
    "VertexOrder",
    "all_pairs_distances",
    "build_clique_cycle",
    "build_scheme",
    "build_vertex_order",
    "gen_complete",
    "gen_perturbed_ring",
    "gen_random",
    "gen_ring",
    "gen_wheel",
    "has_shortest_path_1irs",
    "interval_stats",
    "intersection_graph",
    "is_real",
    "parse_model",
    "route",
    "validate_model",
    "verify_scheme",
]
