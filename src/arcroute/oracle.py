"""Exhaustive search for shortest-path 1-interval routing on tiny graphs.

Decides, by enumerating cyclic vertex orders up to rotation and
reflection, whether a graph admits a shortest-path routing scheme with at
most one interval per directed arc.  Non-strict by default: the interval
at an arc of ``v`` may also contain ``v`` itself.  Positive answers come
with a witness that is re-certified against BFS distances before being
returned.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .arc_model import Graph, all_pairs_distances
from .errors import ConstructionError, OracleLimitError
from .ring_order import CyclicOrder, RingInterval, expand_runs

log = logging.getLogger(__name__)

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

    Refuses graphs above ``vertex_limit`` (the search is factorial).
    """
    n = graph.n
    if n > vertex_limit:
        raise OracleLimitError(
            f"{n} vertices exceed the oracle limit of {vertex_limit}"
        )
    if n == 1:
        return OracleResult(True, (0,), {})
    dist = all_pairs_distances(graph)
    if (dist < 0).any():
        return OracleResult(False)

    # allowed[v][w]: bitmask of destinations u with w on a shortest v->u path
    nbrs = [np.flatnonzero(graph.adj[v]).tolist() for v in range(n)]
    allowed: list[dict[int, int]] = [{} for _ in range(n)]
    for v in range(n):
        for w in nbrs[v]:
            mask = 0
            for u in range(n):
                if u != v and dist[w, u] == dist[v, u] - 1:
                    mask |= 1 << u
            allowed[v][w] = mask

    by_degree = sorted(range(n), key=lambda v: int(graph.degrees[v]))
    started = time.perf_counter()
    tried = 0
    for rest in permutations(range(1, n)):
        if n >= 3 and rest[0] > rest[-1]:
            continue  # reflected duplicate
        order = (0,) + rest
        tried += 1
        assignment: dict[tuple[int, int], RingInterval] = {}
        feasible = True
        for v in by_degree:
            segs = _segments_for_vertex(order, allowed, v, nbrs[v], strict)
            if segs is None:
                feasible = False
                break
            assignment.update(segs)
        if feasible:
            log.debug("1-IRS witness after %d orders in %.3fs",
                      tried, time.perf_counter() - started)
            _certify_witness(graph, dist, order, assignment, strict)
            return OracleResult(True, order, assignment)
    log.debug("no 1-IRS among %d orders in %.3fs",
              tried, time.perf_counter() - started)
    return OracleResult(False)


def _segments_for_vertex(order, allowed, v, nbrs, strict):
    """One interval per distinct arc (to a neighbor in ``nbrs``) covering
    everyone but v, or None.

    The cyclic order is cut just after v, giving a line of n-1 targets;
    a non-strict solution may additionally let one arc's interval wrap
    across v (a suffix plus a prefix of the line).
    """
    n = len(order)
    pos = {u: i for i, u in enumerate(order)}
    seq = [order[(pos[v] + 1 + i) % n] for i in range(n - 1)]
    length = n - 1
    masks = [allowed[v][w] for w in nbrs]
    d = len(nbrs)

    # reach[i][wi]: furthest j with seq[i..j] all fitting arc wi (i-1 if none)
    reach = [[0] * d for _ in range(length)]
    for wi in range(d):
        mask = masks[wi]
        run_end = -1
        for i in range(length - 1, -1, -1):
            if mask >> seq[i] & 1:
                if run_end == -1:
                    run_end = i
                reach[i][wi] = run_end
            else:
                reach[i][wi] = i - 1
                run_end = -1

    memo: dict[tuple[int, int, int], list | None] = {}

    def cover(i: int, end: int, used: int):
        """Exactly cover seq[i..end-1] with distinct unused arcs."""
        if i == end:
            return []
        key = (i, end, used)
        if key in memo:
            return memo[key]
        result = None
        for wi in range(d):
            if used >> wi & 1:
                continue
            top = min(reach[i][wi], end - 1)
            for j in range(top, i - 1, -1):
                tail = cover(j + 1, end, used | (1 << wi))
                if tail is not None:
                    result = [(wi, i, j)] + tail
                    break
            if result is not None:
                break
        memo[key] = result
        return result

    plain = cover(0, length, 0)
    if plain is not None:
        return _segments_to_labels(v, seq, nbrs, plain, None)
    if strict:
        return None

    # wrap case: one arc takes a suffix, v itself, and a prefix of the line
    for wi in range(d):
        mask = masks[wi]
        prefix_top = -1
        while prefix_top + 1 < length and mask >> seq[prefix_top + 1] & 1:
            prefix_top += 1
        suffix_lo = length
        while suffix_lo - 1 >= 0 and mask >> seq[suffix_lo - 1] & 1:
            suffix_lo -= 1
        for i in range(-1, prefix_top + 1):
            for j in range(max(suffix_lo, i + 1), length + 1):
                if i == -1 and j == length:
                    continue  # interval would contain only v
                middle = cover(i + 1, j, 1 << wi)
                if middle is not None:
                    return _segments_to_labels(
                        v, seq, nbrs, middle, (wi, i, j)
                    )
    return None


def _segments_to_labels(v, seq, nbrs, middle, wrap):
    labels: dict[tuple[int, int], RingInterval] = {}
    for wi, i, j in middle:
        labels[(v, nbrs[wi])] = RingInterval(seq[i], seq[j])
    if wrap is not None:
        wi, i, j = wrap
        lo = seq[j] if j < len(seq) else v
        hi = seq[i] if i >= 0 else v
        labels[(v, nbrs[wi])] = RingInterval(lo, hi)
    return labels


def _certify_witness(graph, dist, order, labels, strict) -> None:
    """Re-check the witness against the relaxed scheme constraints."""
    n = graph.n
    cyc = CyclicOrder(order)
    arcs = list(labels.items())
    src = np.array([v for (v, _), _ in arcs], dtype=np.int64)
    tgt = np.array([w for (_, w), _ in arcs], dtype=np.int64)
    run, positions = expand_runs(
        [cyc.position(ivl.a) for _, ivl in arcs],
        [cyc.distance(ivl.a, ivl.b) + 1 for _, ivl in arcs],
        n,
    )
    v, w, u = src[run], tgt[run], np.asarray(order, dtype=np.int64)[positions]
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
