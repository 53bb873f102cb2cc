"""Exception hierarchy shared by all arcroute modules."""

from __future__ import annotations


class ArcRouteError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ModelFormatError(ArcRouteError):
    """An arc-model file or payload violates the documented format."""

    code = "bad-format"


class DuplicateEndpointError(ModelFormatError):
    code = "duplicate-endpoint"


class PositionOutOfRangeError(ModelFormatError):
    code = "position-out-of-range"


class DegenerateArcError(ModelFormatError):
    code = "degenerate-arc"


class NotRealCircularArc(ArcRouteError):
    """The arcs of the model do not cover the whole circle.

    Such models describe interval graphs; the scheme builder rejects them.
    """

    code = "not-real-circular-arc"


class ConstructionError(ArcRouteError):
    """Internal invariant of the scheme construction failed.

    Carries the vertex that was being labeled when the invariant broke.
    """

    code = "construction-failure"

    def __init__(self, message: str, vertex: int | None = None):
        if vertex is not None:
            message = f"vertex {vertex}: {message}"
        super().__init__(message)
        self.vertex = vertex


class StructuralSchemeError(ArcRouteError):
    """A routing scheme references vertices or arcs the graph does not have."""

    code = "structural"


class RouteError(ArcRouteError):
    code = "route-failure"


class CoverageHoleError(RouteError):
    code = "coverage-hole"


class AmbiguousRouteError(RouteError):
    code = "ambiguous-containment"


class RoutingLoopError(RouteError):
    code = "routing-loop"


class OracleLimitError(ArcRouteError):
    """Brute-force oracle refused an instance above its vertex limit."""

    code = "oracle-limit"
