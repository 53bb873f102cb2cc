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
The cycle holds the edges ``intersection_edges`` lists, and the degrees
that tell these vertices: all a build reads of the adjacency.
"""

from __future__ import annotations

import numpy as np

from .arc_model import ArcModel, arc_spans, intersection_edges
from .errors import ConstructionError, NotRealCircularArc
from .ring_order import _points_in_spans, expand_runs, ring_coverage


class CliqueCycle:
    __slots__ = ("edges", "degrees", "anchors", "left", "right", "span_len",
                 "dominating")

    def __init__(self, edges: tuple[np.ndarray, np.ndarray], degrees: np.ndarray,
                 anchors: np.ndarray, left: np.ndarray, right: np.ndarray,
                 span_len: np.ndarray):
        self.edges, self.degrees, self.anchors = edges, degrees, anchors
        self.left, self.right, self.span_len = left, right, span_len
        self.dominating = degrees == len(left) - 1

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
    """Derive the clique-cycle of a circle-covering model, with the edges
    of its intersection graph.

    Raises NotRealCircularArc when some gap is uncovered (interval-graph
    models are out of scope for the scheme construction), before the
    edges are listed.  The arcs are read once, and the per-gap coverage
    serves both that check and as the point-clique sizes, which
    ``clique_runs`` compares with arc counts to test containment exactly.
    """
    spans = arc_spans(model)
    sizes = ring_coverage(*spans, model.circle_size)
    if not sizes.all():
        raise NotRealCircularArc("arcs do not cover the whole circle")
    return CliqueCycle(*intersection_edges(*spans, len(sizes)),
                       *clique_runs(*spans, sizes))


def clique_runs(starts: np.ndarray, lengths: np.ndarray, sizes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Anchors of the maximal cliques, then each arc's left clique, right
    clique and run length, from the arc spans and the gap coverage ``sizes``.

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
    size = len(sizes)
    # a gap opened by an arc start and closed by an arc end holds one arc
    # more than both neighbours; any other gap has a neighbour holding its
    # arcs plus one, so only these gaps can carry a maximal clique.  Each
    # position holds the length of the arc it opens, or minus the length of
    # the arc it closes, and position ``size`` is position 0 again
    signed = np.zeros(size + 1, dtype=np.int64)
    signed[starts], signed[(starts + lengths) % size] = lengths, -lengths
    signed[size] = signed[0]
    cand = ((signed[:-1] > 0) & (signed[1:] < 0)).nonzero()[0]
    len_a, len_b = signed[cand], -signed[cand + 1]
    n_cand = len(cand)

    # (arc, covered candidate) pairs, keyed by candidate and the number of
    # gaps the arc runs on past it; one sort answers every count below
    lo, count = _points_in_spans(cand, starts, lengths, size)
    arc, at = expand_runs(lo, count, n_cand)
    keys = at * size + lengths[arc] - 1 - (cand[at] - starts[arc]) % size
    keys.sort()
    block_end = keys.searchsorted(np.arange(1, n_cand + 1) * size)

    def running_on(c, d):
        """Arcs covering candidate ``c`` that run on at least ``d`` gaps."""
        return block_end[c] - keys.searchsorted(c * size + d)

    # pair each candidate with the candidates in the far overlap of the
    # arcs opening and closing it; an index order is a gap order
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
        v = int((count < 1).argmax())
        raise ConstructionError(f"arc {v} covers no maximal clique anchor",
                                vertex=v)
    # a span is shorter than the circle, so it holds each anchor once
    return anchors, lo % k, (lo + count - 1) % k, count

