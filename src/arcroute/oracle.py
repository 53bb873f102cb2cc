"""Exhaustive search for shortest-path 1-interval routing on tiny graphs.

Decides, by enumerating cyclic vertex orders up to rotation and
reflection, whether a graph admits a shortest-path routing scheme with at
most one interval per directed arc.  Non-strict by default: the interval
at an arc of ``v`` may also contain ``v`` itself.  Positive answers come
with a witness that is re-certified against BFS distances before being
returned.

A neighbor u of v is one hop away, so only the arc (v, u) can carry it.
Each arc of v therefore holds the one run around its own neighbor, and an
order fits v when the runs of consecutive neighbors meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ConstructionError, OracleLimitError
from .graph import Graph, all_pairs_distances
from .ring_order import CyclicOrder, RingInterval, expand_runs
from .scheme import RoutingScheme

DEFAULT_VERTEX_LIMIT = 9


@dataclass
class OracleResult:
    exists_1irs: bool
    witness_order: tuple[int, ...] | None = None
    witness_labels: dict[tuple[int, int], RingInterval] | None = None


def has_shortest_path_1irs(
    graph: Graph,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    strict: bool = False,
) -> OracleResult:
    """Existence of a shortest-path 1-interval scheme, by brute force.

    Refuses graphs above ``vertex_limit`` (the search is factorial).  Per
    order and vertex no search is needed: only arc (v, u) can carry a
    neighbor u, so each arc holds the run around its own neighbor, grown
    forward as far as the arc allows.
    """
    n = graph.n
    if n > vertex_limit:
        raise OracleLimitError(
            f"{n} vertices exceed the oracle limit of {vertex_limit}"
        )
    if n <= 1:
        return OracleResult(True, tuple(range(n)), {})
    dist = all_pairs_distances(graph)
    if (dist < 0).any():
        return OracleResult(False)

    # allowed[v][w][u]: w starts a shortest path from v to u
    allowed = (dist[None, :, :] == dist[:, None, :] - 1).tolist()
    nbrs = [row.tolist() for row in np.split(graph.keys % n, graph.indptr[1:-1])]

    by_degree = sorted(range(n), key=lambda v: int(graph.degrees[v]))
    for rest in permutations(range(1, n)):
        if n >= 3 and rest[0] > rest[-1]:
            continue  # reflected duplicate
        order = (0,) + rest
        assignment: dict[tuple[int, int], RingInterval] = {}
        feasible = True
        for v in by_degree:
            segs = _segments_for_vertex(order, allowed, v, nbrs[v], strict)
            if segs is None:
                feasible = False
                break
            assignment.update(segs)
        if feasible:
            _certify_witness(graph, dist, order, assignment, strict)
            return OracleResult(True, order, assignment)
    return OracleResult(False)


def _segments_for_vertex(order, allowed, v, nbrs, strict):
    """One interval per arc (to a neighbor in ``nbrs``) covering everyone
    but v, or None.

    The cyclic order is cut just after v, giving a line of n-1 targets on
    which the runs follow v's neighbors.  A non-strict solution may instead
    let the first or the last neighbor's run wrap across v (a suffix plus a
    prefix of the line).
    """
    at = order.index(v)
    seq = order[at + 1:] + order[:at]
    length = len(seq)
    line = sorted(nbrs, key=seq.index)
    fits = allowed[v]

    def reach(w, i, step):
        """Last index reached from i by steps of ``step`` over targets that
        arc w allows."""
        while 0 <= i + step < length and fits[w][seq[i + step]]:
            i += step
        return i

    def chain(ws, start, stop):
        """Runs of the arcs to ``ws`` exactly covering seq[start:stop], each
        grown forward as far as its arc allows."""
        runs = {}
        for w in ws:
            p = seq.index(w)
            if reach(w, p, -1) > start:
                return None
            end = min(reach(w, p, 1), stop - 1)
            runs[(v, w)] = RingInterval(seq[start], seq[end])
            start = end + 1
        return runs if start == stop else None

    runs = chain(line, 0, length)
    if runs is not None or strict or len(line) < 2:
        return runs
    # wrap case: only the first or the last neighbor's run can cross v (a
    # lone arc would cover the whole line), with its shortest prefix and its
    # longest suffix.  If both could, the strict check would have passed.
    for w in (line[0], line[-1]):
        rest = [u for u in line if u != w]
        i = reach(rest[0], seq.index(rest[0]), -1) - 1
        j = reach(w, length, -1)
        runs = chain(rest, i + 1, j) if reach(w, -1, 1) >= i else None
        if runs is not None:
            runs[(v, w)] = RingInterval(seq[j] if j < length else v,
                                        seq[i] if i >= 0 else v)
            return runs
    return None


def witness_scheme(order, labels) -> RoutingScheme:
    """A witness order and its labels as a ``RoutingScheme``."""
    cyc = CyclicOrder(order)
    rows = np.array([(v, w, ivl.a, ivl.b) for (v, w), ivl in labels.items()],
                    dtype=np.int64).reshape(-1, 4)
    a, b = cyc.pos[rows[:, 2:]].T
    return RoutingScheme(cyc, rows[:, 0], rows[:, 1], a, (b - a) % cyc.n + 1)


def _certify_witness(graph, dist, order, labels, strict) -> None:
    """Re-check the witness against the relaxed scheme constraints."""
    n = graph.n
    scheme = witness_scheme(order, labels)
    run, positions = expand_runs(scheme.start, scheme.length, n)
    v, w, u = scheme.src[run], scheme.dst[run], scheme.order.items[positions]
    own = u == v
    if strict and own.any():
        raise ConstructionError("strict witness covers itself")
    hop = ~own
    if (dist[w[hop], u[hop]] != dist[v[hop], u[hop]] - 1).any():
        raise ConstructionError("witness labels a non-shortest hop")
    seen = np.bincount(v * n + u, minlength=n * n).reshape(n, n)
    if (seen > 1).any():
        raise ConstructionError("witness intervals overlap")
    np.fill_diagonal(seen, 1)
    if not (seen == 1).all():
        raise ConstructionError("witness misses a destination")
