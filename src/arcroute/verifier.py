"""Independent validation of routing schemes.

The verifier is part of the oracle half: it imports only ``graph``,
``scheme``, ``ring_order`` and ``errors``, never arc geometry or
clique-cycles.  It recomputes shortest-path structure from the graph
alone (one hop-distance matrix from ``all_pairs_distances``) and checks a
scheme against the defining constraints — no interval holds its own
source, the intervals at a vertex are disjoint and cover every other
vertex, and every labeled destination is reached through a first vertex
of some shortest path.
It checks all rows in one pass (one expansion into (row, destination)
pairs, one bincount over their cells) and never reads the forwarding
table, so the route check below stays independent.  Route simulation
and interval accounting live here too, on the scheme's arrays.

Routes read one forwarding table per (scheme, graph), built in one bulk
pass over all intervals.  ``route_lengths`` checks every first hop for
holes and ambiguities up front, then follows all n^2 routes at once by
pointer doubling: ceil(log2 n) rounds, each one doubling the hops every
route has covered, instead of one round per hop.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import (
    AmbiguousRouteError,
    CoverageHoleError,
    RoutingLoopError,
    StructuralSchemeError,
)
from .graph import Graph, all_pairs_distances
from .ring_order import expand_runs, is_id
from .scheme import RoutingScheme

AMBIGUOUS = -2
UNCOVERED = -1

# per scheme, the graphs it has been checked against, each with its
# forwarding table once a route needs it; an entry goes with its scheme
_ROUTE_TABLES: weakref.WeakKeyDictionary[
    RoutingScheme, dict[Graph, np.ndarray | None]] = weakref.WeakKeyDictionary()


@dataclass
class VerificationReport:
    """Outcome of one scheme verification, all failures enumerated; each
    constraint holds when its list of violations is empty."""

    strictness_violations: list[dict] = field(default_factory=list)
    disjoint_violations: list[dict] = field(default_factory=list)
    coverage_violations: list[dict] = field(default_factory=list)
    shortest_violations: list[dict] = field(default_factory=list)
    total_intervals: int = 0
    max_intervals_per_arc: int = 0
    double_labeled_arcs_per_vertex: dict[int, int] = field(default_factory=dict)

    strictness_ok = property(lambda self: not self.strictness_violations)
    disjoint_ok = property(lambda self: not self.disjoint_violations)
    coverage_ok = property(lambda self: not self.coverage_violations)
    shortest_ok = property(lambda self: not self.shortest_violations)

    @property
    def passed(self) -> bool:
        return (self.strictness_ok and self.disjoint_ok
                and self.coverage_ok and self.shortest_ok)

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "strictness_ok": self.strictness_ok,
            "disjoint_ok": self.disjoint_ok,
            "coverage_ok": self.coverage_ok,
            "shortest_ok": self.shortest_ok,
            "total_intervals": self.total_intervals,
            "max_intervals_per_arc": self.max_intervals_per_arc,
            "double_labeled_arcs_per_vertex": _by_vertex(
                self.double_labeled_arcs_per_vertex),
            "strictness_violations": self.strictness_violations,
            "disjoint_violations": self.disjoint_violations,
            "coverage_violations": self.coverage_violations,
            "shortest_violations": self.shortest_violations,
        }
        return json.dumps(payload, indent=2)


def _by_vertex(counts: dict[int, int]) -> dict[str, int]:
    """Per-vertex counts as a JSON object, keyed by vertex id in order."""
    return {str(v): c for v, c in sorted(counts.items())}


def _check_structure(graph: Graph, scheme: RoutingScheme) -> None:
    n = graph.n
    if scheme.n != n:
        raise StructuralSchemeError(
            f"scheme order covers {scheme.n} vertices, graph has {n}"
        )
    # a scheme that passes labels every edge (see IntervalStats), so its
    # distinct arcs, sorted like the keys, are the keys; else name the lowest
    arcs = (scheme.src * n + scheme.dst)[scheme._arc_opens()]
    if not np.array_equal(arcs, graph.keys):
        bad = ~np.isin(arcs, graph.keys)
        if bad.any():
            v, w = divmod(int(arcs[bad][0]), n)
            raise StructuralSchemeError(f"arc ({v}, {w}) is not a graph edge")


def verify_scheme(graph: Graph, scheme: RoutingScheme) -> VerificationReport:
    """Check a scheme against the graph; collects every violation.

    Raises StructuralSchemeError when the scheme does not fit the graph:
    its order has another vertex count, or a row labels a non-edge.  A
    row outside the order (an id that is no vertex, a loop, an interval
    that is no run of the order) never gets here: ``RoutingScheme``
    rejects it when it is built.  Verification failures are reported, not
    raised.  Every row is checked in one pass; each list runs by source
    vertex, then by row (strictness, shortest paths) or by destination.
    """
    _checked(scheme, graph)
    n = graph.n
    src, dst, start, length = scheme.src, scheme.dst, scheme.start, scheme.length
    items, pos = scheme.order.items, scheme.order.pos
    flat = all_pairs_distances(graph).ravel()
    # pair i of the expansion: its row's source v holds destination u in
    # cell v * n + u, and the row's hop w must be one step nearer to u;
    # built in place, each temporary dropped once read
    run, cell = expand_runs(start, length, n)
    cell = items[cell]
    hop = dst[run] * n
    hop += cell
    cell += src[run] * n
    del run
    hop = flat[hop]
    hop -= flat[cell]
    detours = np.flatnonzero(hop != -1)
    del hop
    counts = np.bincount(cell, minlength=n * n)
    counts[::n + 1] = 1  # a vertex's own cell is a strictness matter
    doubled = np.flatnonzero((counts > 1)[cell])
    doubled = doubled[np.argsort(cell[doubled], kind="stable")]
    holes = np.flatnonzero(counts == 0)

    def pairs(index):  # (v, u, w) of the pairs at these indices
        w = dst[np.searchsorted(np.cumsum(length), index, side="right")]
        return zip((cell[index] // n).tolist(), (cell[index] % n).tolist(), w.tolist())

    # rows that hold their own source
    held = np.flatnonzero((pos[src] - start) % n < length)
    first = start[held]
    ends = items[np.column_stack([first, (first + length[held] - 1) % n])]
    strict = [{"vertex": v, "arc": [v, w], "interval": e} for v, w, e in
              zip(src[held].tolist(), dst[held].tolist(), ends.tolist())]
    disjoint = [{"vertex": v, "destination": u, "arcs": [[v, w] for *_, w in group]}
                for (v, u), group in groupby(pairs(doubled), key=lambda p: p[:2])]
    coverage = [{"vertex": v, "destination": u}
                for v, u in zip((holes // n).tolist(), (holes % n).tolist())]
    shortest = [{"vertex": v, "arc": [v, w], "destination": u}
                for v, u, w in pairs(detours)]
    stats = interval_stats(scheme)
    return VerificationReport(
        strict, disjoint, coverage, shortest, stats.total_intervals,
        stats.max_intervals_per_arc, stats.double_labeled_arcs_per_vertex)


def _checked(scheme: RoutingScheme,
             graph: Graph) -> dict[Graph, np.ndarray | None]:
    """Check the scheme against the graph, once per graph; the scheme's
    forwarding tables by graph."""
    tables = _ROUTE_TABLES.get(scheme)
    if tables is None:  # setdefault would make a new weak reference each call
        tables = _ROUTE_TABLES[scheme] = {}
    if graph not in tables:
        _check_structure(graph, scheme)
        tables[graph] = None
    return tables


def _forwarding_table(scheme: RoutingScheme, graph: Graph) -> np.ndarray:
    """``table[v, p]``: where v forwards a packet for the vertex at order
    position p; UNCOVERED where no interval at v holds p, AMBIGUOUS where
    several do.  Checked and built once per graph, from all rows at once."""
    tables = _checked(scheme, graph)
    table = tables[graph]
    if table is None:
        n = scheme.n
        run, cells = expand_runs(scheme.start, scheme.length, n)
        cells += scheme.src[run] * n
        table = np.full(n * n, UNCOVERED, dtype=np.int64)
        table[cells] = scheme.dst[run]
        table[np.bincount(cells, minlength=n * n) > 1] = AMBIGUOUS
        table = tables[graph] = table.reshape(n, n)
    return table


def route(scheme: RoutingScheme, graph: Graph, src: int, dst: int) -> list[int]:
    """Simulate forwarding from src to dst; returns the vertex path.

    Raises CoverageHoleError / AmbiguousRouteError / RoutingLoopError when
    the scheme fails to route; the hop cap is the vertex count.  Raises
    StructuralSchemeError, as verify_scheme does, when the scheme does not
    fit the graph, and when an endpoint is not a vertex id of the graph.
    """
    n = graph.n
    if not (is_id(src) and is_id(dst) and 0 <= src < n and 0 <= dst < n):
        raise StructuralSchemeError("route endpoints outside the graph")
    if src == dst:
        raise ValueError("route endpoints must differ")
    column = _forwarding_table(scheme, graph)[:, scheme.order.pos[dst]]
    path = [int(src)]
    x = src
    for _ in range(n):
        nxt = int(column[x])
        if nxt == UNCOVERED:
            raise CoverageHoleError(f"no interval at {x} contains {dst}")
        if nxt == AMBIGUOUS:
            raise AmbiguousRouteError(f"multiple intervals at {x} contain {dst}")
        path.append(nxt)
        if nxt == dst:
            return path
        x = nxt
    raise RoutingLoopError(f"no delivery within {n} hops: {path}")


def route_lengths(scheme: RoutingScheme, graph: Graph) -> np.ndarray:
    """Hop counts of simulated routes for every ordered pair at once.

    Reads the forwarding table route() uses.  Every first hop is checked
    up front: the first hole, then the first ambiguity, in (source, order
    position) order, raises.  Then ceil(log2 n) pointer-doubling rounds
    follow every route at once (fewer once all routes have settled), and
    an undelivered route raises RoutingLoopError; StructuralSchemeError is
    raised as verify_scheme does.  Entry [u, w] is the hop count from u
    to w.
    """
    n = graph.n
    table = _forwarding_table(scheme, graph)
    items = scheme.order.items
    positions = np.arange(n, dtype=np.int64)
    arrived = np.zeros((n, n), dtype=bool)
    arrived[items, positions] = True  # the cell of each position's vertex
    for code, error, problem in (
            (UNCOVERED, CoverageHoleError, "no interval covers"),
            (AMBIGUOUS, AmbiguousRouteError, "overlapping intervals for")):
        bad = (table == code) & ~arrived
        if bad.any():
            u, p = divmod(int(np.argmax(bad)), n)
            raise error(f"{problem} {int(items[p])} along the route from {u}")
    # cell p * n + v is a packet at v for position p, so a route never
    # leaves its row; jump maps a cell to the cell 2**r hops on after r
    # rounds, and steps counts the hops it took to get there
    home = positions * n + items
    jump = table.T + (positions * n)[:, None]
    jump[positions, items] = home
    jump = jump.ravel()
    steps = (~arrived.T).ravel().astype(np.int64)
    covered = 1
    while covered < n:
        steps += steps[jump]
        nxt = jump[jump]
        covered *= 2
        if np.array_equal(nxt, jump):  # a fixed point: nothing moves on
            break
        jump = nxt
    if (jump.reshape(n, n) != home[:, None]).any():
        raise RoutingLoopError(f"undelivered routes after {n} hops")
    out = np.empty((n, n), dtype=np.int64)
    out[:, items] = steps.reshape(n, n).T
    return out


@dataclass
class IntervalStats:
    """Interval accounting for one scheme.

    ``arc_count`` counts the arcs that carry an interval, and
    ``edge_count`` is half of it.  In a shortest-path scheme the only
    shortest path from a vertex to a neighbour is their edge, so every
    graph arc carries an interval and ``arc_count == 2 m`` on any scheme
    that passes ``verify_scheme``.
    """

    total_intervals: int
    max_intervals_per_arc: int
    double_labeled_arcs_per_vertex: dict[int, int]
    arc_count: int
    vertex_count: int

    @property
    def edge_count(self) -> int:
        return self.arc_count // 2

    @property
    def total_within_bound(self) -> bool:
        return self.total_intervals <= 2 * self.edge_count + self.vertex_count

    @property
    def per_arc_within_bound(self) -> bool:
        return self.max_intervals_per_arc <= 2

    @property
    def doubles_within_bound(self) -> bool:
        return all(c <= 1 for c in self.double_labeled_arcs_per_vertex.values())

    def to_json(self) -> str:
        return json.dumps({
            "total_intervals": self.total_intervals,
            "max_intervals_per_arc": self.max_intervals_per_arc,
            "double_labeled_arcs_per_vertex": _by_vertex(
                self.double_labeled_arcs_per_vertex),
            "arc_count": self.arc_count,
            "vertex_count": self.vertex_count,
            "total_within_bound": self.total_within_bound,
            "per_arc_within_bound": self.per_arc_within_bound,
            "doubles_within_bound": self.doubles_within_bound,
        }, indent=2)


def interval_stats(scheme: RoutingScheme) -> IntervalStats:
    first = np.flatnonzero(scheme._arc_opens())
    per_arc = np.diff(first, append=len(scheme.src))
    doubled, doubles = np.unique(scheme.src[first[per_arc >= 2]], return_counts=True)
    return IntervalStats(
        total_intervals=len(scheme.src),
        max_intervals_per_arc=int(per_arc.max(initial=0)),
        double_labeled_arcs_per_vertex=dict(zip(doubled.tolist(), doubles.tolist())),
        arc_count=len(first),
        vertex_count=scheme.n,
    )
