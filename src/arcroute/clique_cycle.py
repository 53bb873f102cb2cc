"""Clique-cycle of an arc model.

Every gap of the circle induces a point-clique (the arcs covering it).
The clique-cycle keeps the point-cliques that are maximal under inclusion,
deduplicated by member set and ordered clockwise by their first gap.  Each
vertex then owns a contiguous run of these cliques, its geometric clique
run; the run's two ends are the vertex's left and right clique, and those
spans drive everything the scheme builder does.  ``clique_runs`` finds
the cliques and the runs from the arc geometry in a few sorts and
searches, testing containment by counting arcs and never writing out a
member set.

Arcs whose runs overlap at both ends of the cycle form a counter pair,
which ``counter_pairs`` tells from the two runs alone, edge by edge.

Only a vertex adjacent to all others can own a run of all k cliques, but
such a vertex may own a shorter run too.  Following the construction, the
vertex order ignores the runs of these all-adjacent vertices and places
them together, in id order, at the end of the block of clique ``1 % k``.
"""

from __future__ import annotations

import numpy as np

from .arc_model import ArcModel, arc_spans, gap_coverage, intersection_graph
from .errors import ConstructionError, NotRealCircularArc
from .graph import Graph
from .ring_order import _points_in_spans, expand_runs


class CliqueCycle:
    __slots__ = ("graph", "anchors", "left", "right", "span_len", "dominating")

    def __init__(self, graph: Graph, anchors: np.ndarray, left: np.ndarray,
                 right: np.ndarray, span_len: np.ndarray):
        self.graph = graph
        self.anchors = np.asarray(anchors, dtype=np.int64)
        self.left = left
        self.right = right
        self.span_len = span_len
        self.dominating = graph.degrees == graph.n - 1

    @property
    def k(self) -> int:
        """Number of cliques on the cycle."""
        return len(self.anchors)


def counter_pairs(lc_u, len_u, lc_v, len_v, k: int):
    """Elementwise: do arcs with clique runs ``(lc_u, len_u)`` and ``(lc_v,
    len_v)`` overlap at both ends of the circle?  They do when neither run
    is the whole cycle, the runs start at different cliques and each holds
    the other's start; such a pair shares a clique, so it is an edge."""
    return ((lc_u != lc_v) & (len_u < k) & (len_v < k)
            & ((lc_v - lc_u) % k < len_u) & ((lc_u - lc_v) % k < len_v))


def build_clique_cycle(model: ArcModel) -> CliqueCycle:
    """Derive the clique-cycle of a circle-covering model, with its
    intersection graph.

    Raises NotRealCircularArc when some gap is uncovered (interval-graph
    models are out of scope for the scheme construction), before the
    graph is built.  The per-gap coverage serves both that check and as
    the point-clique sizes, which ``clique_runs`` compares with arc counts
    to test containment exactly.
    """
    sizes = gap_coverage(model)
    if not (sizes > 0).all():
        raise NotRealCircularArc("arcs do not cover the whole circle")
    return CliqueCycle(intersection_graph(model), *clique_runs(model, sizes))


def clique_runs(model: ArcModel, sizes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Anchors of the maximal cliques, then each arc's left clique, right
    clique and run length, from the arc geometry alone.

    Only a candidate gap ``g`` (position ``g`` opens an arc ``a`` and
    position ``g + 1`` closes an arc ``b``) can anchor a maximal clique.
    Its clique lies inside the clique at another gap ``h`` only if both
    ``a`` and ``b`` cover ``h``, that is if ``h`` lies in their far
    overlap, ``size - |b| + 1`` to ``|a| - 1`` gaps clockwise from ``g``.
    For ``h`` at ``d`` gaps from ``g``, an arc covers both gaps exactly
    when it covers ``g`` and runs on at least ``d`` more gaps, or covers
    ``h`` and runs on at least ``size - d``; no arc does both, as it would
    cover the whole circle.  So the clique at ``g`` lies inside the one at
    ``h`` iff these two counts add up to ``sizes[g]``.  ``g`` is dropped
    when that clique is larger, or equal with an earlier first gap, which
    keeps the first gap of every maximal member set.  Memory is linear in
    the candidate memberships plus the (candidate, far-overlap candidate)
    pairs; no member set is ever written out.
    """
    size = model.circle_size
    starts, lengths = arc_spans(model)
    # a gap opened by an arc start and closed by an arc end holds one arc
    # more than both neighbours; any other gap has a neighbour holding its
    # arcs plus one, so only these gaps can carry a maximal clique
    opens = np.zeros(size, dtype=bool)
    opens[starts] = True
    cand = np.flatnonzero(opens & ~np.roll(opens, -1))
    n_cand = len(cand)

    # (arc, covered candidate) pairs, keyed by candidate and the number of
    # gaps the arc runs on past it; one sort answers every count below
    lo, count = _points_in_spans(cand, starts, lengths, size)
    arc, at = expand_runs(lo, count, n_cand)
    keys = np.sort(at * size + lengths[arc] - 1 - (cand[at] - starts[arc]) % size)
    block_end = np.searchsorted(keys, np.arange(1, n_cand + 1) * size)

    def running_on(c, d):
        """Arcs covering candidate ``c`` that run on at least ``d`` gaps."""
        return block_end[c] - np.searchsorted(keys, c * size + d)

    # pair each candidate with the candidates in the far overlap of the
    # arcs opening and closing it; an index order is a gap order
    opened = np.zeros(size, dtype=np.int64)
    opened[starts] = lengths
    closed = np.zeros(size, dtype=np.int64)
    closed[(starts + lengths) % size] = lengths
    len_a = opened[cand]
    len_b = closed[(cand + 1) % size]
    lo, count = _points_in_spans(cand, cand + size - len_b + 1,
                                 len_a + len_b - size - 1, size)
    g, h = expand_runs(lo, count, n_cand)
    d = (cand[h] - cand[g]) % size
    clique = sizes[cand]
    inside = running_on(g, d) + running_on(h, size - d) == clique[g]
    beaten = inside & ((clique[h] > clique[g]) | (h < g))
    dropped = np.zeros(n_cand, dtype=bool)
    dropped[g[beaten]] = True
    anchors = cand[~dropped]

    k = len(anchors)
    lo, count = _points_in_spans(anchors, starts, lengths, size)
    if (count < 1).any():
        v = int(np.flatnonzero(count < 1)[0])
        raise ConstructionError(f"arc {v} covers no maximal clique anchor",
                                vertex=v)
    # a span is shorter than the circle, so it holds each anchor once
    return anchors, lo % k, (lo + count - 1) % k, count

