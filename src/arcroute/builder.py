"""Construction of shortest-path strict 2-interval routing schemes.

Given a circle-covering arc model, the builder derives the clique-cycle,
lays the vertices out in a cyclic order grouped by the clique where each
vertex's clique run begins, and labels every directed arc ``(v, w)`` with
at most two ring-intervals of destinations such that forwarding by
interval membership always follows shortest paths.  Per vertex, at most
one outgoing arc ends up with two intervals.

The per-vertex work splits the other vertices into three runs of the
vertex order: the right block (everything whose clique run starts inside
v's own run; always adjacent to v), the left block (from v's left vertex
up to v; served by its adjacent members), and the facing block in between
(never adjacent to v unless a vertex dominates the graph).  Distributing
the facing block is the delicate part and branches on whether dominating
vertices or counter pairs exist, and in the plain case on whether the
clique cycle has a cut.  Every case reads the arcs and the arc sweep's
edge list alone: a build runs no graph search and makes no ``Graph``.

Each block is a run of offsets clockwise after the vertex, and each label
assignment a run (source, target, offset, length).  One pass over the
directed edges gives the frame arrays of all vertices (``left_of``,
``middle_of``, ``right_of``, ``lo`` and ``hi``) and the runs of every right
and left block, one bulk pass plans every facing block, finding where
each vertex's chains meet by pointer doubling over the cliques they gain,
and one more joins all runs into a ``RoutingScheme`` of the shared
``scheme`` module, checking its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arc_model import ArcModel
from .clique_cycle import CliqueCycle, build_clique_cycle, counter_pairs
from .errors import ConstructionError
from .ring_order import CyclicOrder, changes, ring_coverage
from .scheme import RoutingScheme


@dataclass(eq=False)
class VertexOrder:
    """Cyclic vertex order grouped in per-clique blocks.

    ``head[c]`` / ``tail[c]`` bound the block of vertices whose span begins
    at clique ``c`` (-1 when no vertex starts there).
    """

    order: CyclicOrder
    head: np.ndarray
    tail: np.ndarray


def build_vertex_order(cycle: CliqueCycle) -> VertexOrder:
    """Emit vertices clique block by clique block.

    The block of clique ``c`` holds the vertices whose clique run begins
    at ``c``.  Inside a block every earlier vertex reaches at most as far
    clockwise as the later ones, so blocks sort by span length; equal
    spans (true twins) break by vertex id.  The all-adjacent vertices are
    placed apart from their runs: they close the block of clique ``1 % k``
    in id order, as if each ran around the whole cycle from there.
    """
    k, dom = cycle.k, cycle.dominating
    start = np.where(dom, 1 % k, cycle.left)
    # by block, then all-adjacent last, then span length; the sort is
    # stable, so ties keep id order
    items = np.lexsort((np.where(dom, 0, cycle.span_len), dom, start))
    starts = start[items]
    first = changes(starts).nonzero()[0]
    head, tail = np.full((2, k), -1, dtype=np.int64)
    head[starts[first]] = items[first]
    tail[starts[first]] = items[np.concatenate((first[1:], [len(items)])) - 1]
    return VertexOrder(CyclicOrder(items), head, tail)


class LabelingContext:
    """Shared state for labeling all vertices, from the clique cycle's runs
    and its edges: ``edges`` keys every directed edge as source * n + target
    position, ascending, and answers every adjacency test of the planner.

    ``has_cut``: a clique boundary ``c -> c + 1`` (a *cut*) is crossed by no
    clique run, so the arcs describe an interval graph.  ``cut_head`` is the
    first vertex of clique ``c + 1``'s block, or ``None`` without a cut.

    One pass over the directed edges gives every vertex's lowest counter
    partner ``partner`` (``n`` for none) and frame: its distinguished
    neighbors ``middle_of``, ``left_of`` and ``right_of`` (-1 where
    undefined: for dominating vertices, and ``right_of`` throughout when
    some vertex dominates) and its block bounds ``lo`` and ``hi`` (both
    ``n`` for a dominating vertex: one right block of everything), and the
    (source, target, offset, length) ``side_runs`` of all right and left blocks.
    """

    def __init__(self, cycle: CliqueCycle, vorder: VertexOrder):
        self.cycle = cycle
        self.vorder = vorder
        self.order = vorder.order
        self.n = self.order.n
        self.items, self.pos = self.order.items, self.order.pos
        self.dominating = cycle.dominating
        self.any_dominating = bool(self.dominating.any())
        k = cycle.k
        # run v crosses the boundaries after its first span_len[v] - 1 cliques
        cuts = (ring_coverage(cycle.left, cycle.span_len - 1, k) == 0).nonzero()[0]
        self.has_cut = len(cuts) > 0
        self.cut_head = int(vorder.head[(cuts[0] + 1) % k]) if len(cuts) else None
        self._compute_frames()

    def _compute_frames(self) -> None:
        """Fill the frame arrays and ``side_runs``, checking every frame."""
        cyc, n, k, dom = self.cycle, self.n, self.cycle.k, self.dominating
        head, tail = self.vorder.head, self.vorder.tail
        # int32 halves the memory traffic of the per-edge arithmetic below
        lc, rc, span, pos, items = (a.astype(np.int32) for a in (
            cyc.left, cyc.right, cyc.span_len, self.pos, self.items))
        # middle vertex: the tail of the last nonempty block at or before
        # v's right clique, read off the block heads written out twice
        marks = np.where(np.concatenate((head, head)) != -1, np.arange(2 * k), -1)
        last = np.maximum.accumulate(marks)[k + rc] % k
        _reject_first(~dom & ((last - lc) % k >= span),
                      "no block found inside own span")
        middle = tail[last]
        # every directed edge as source * n + target position, ascending; ``off``
        # counts the steps from source to target, and ``x.repeat(deg)`` is
        # the faster ``x[src]``.  The per-edge gathers use ``take``: numpy
        # indexes with an int32 array about three times slower than with intp
        (src, tgt), deg = cyc.edges, cyc.degrees
        self.edges = np.sort(np.multiply(src, n, dtype=np.int64) + self.pos.take(tgt))
        src = np.arange(n, dtype=np.int32).repeat(deg)
        col = (self.edges - np.multiply(src, n, dtype=np.int64)).astype(np.int32)
        # ``starts[v]:ends[v]`` holds the edges of v, and no v is isolated: the
        # arc covering the gap before v's start cannot end there, so it meets v
        ends = deg.cumsum()
        starts = ends - deg
        tgt = items.take(col)
        off = (col - pos.repeat(deg)) % n
        # the counter pairs are edges, so one test per edge finds them all
        lc_src, lc_tgt, span_tgt = lc.repeat(deg), lc.take(tgt), span.take(tgt)
        counter = counter_pairs(lc_src, span.repeat(deg), lc_tgt, span_tgt, k)
        self.partner = np.minimum.reduceat(np.where(counter, tgt, n), starts)
        self.has_counter = self.partner < n
        self.any_counter_pair = bool(self.has_counter.any())
        # left vertex: the candidate neighbor farthest behind v (reaching
        # further counterclockwise, not dominating, no counter partner), or
        # the head of v's block when that lies further behind
        dom_tgt = dom.take(tgt)
        cand = ((lc_src - lc_tgt) % k < span_tgt) & (lc_tgt != lc_src) & ~dom_tgt & ~counter
        # masked maxima as products: both factors are non-negative
        back = np.maximum.reduceat(cand * (n - off), starts)
        back = np.where(dom, 0, np.maximum(back, (pos - pos[head[lc]]) % n))
        # int64 like the other frames: ``_separators`` keys edges by left_of * n
        self.left_of = np.where(back > 0, self.items[(pos - back) % n], -1)
        self.middle_of = np.where(dom, -1, middle)
        self.lo = lo = np.where(dom, n, (pos[middle] - pos) % n + 1)
        self.hi = hi = n - back
        _reject_first(lo > hi, "blocks wrapped onto themselves")
        # right block all adjacent, facing block non-adjacent except dominating
        lo_src, hi_src = lo.repeat(deg), hi.repeat(deg)
        right = off < lo_src
        _reject_first(np.bincount(src[right], minlength=n) != lo - 1,
                      "right block holds a non-neighbor")
        side = right | (off >= hi_src)
        _reject_first(np.bincount(src[~side & ~dom_tgt], minlength=n) > 0,
                      "facing block holds a non-dominating neighbor")
        _reject_first(np.bincount(src[off == hi_src], minlength=n) < (hi < n),
                      "left block must start at the left vertex")
        # right vertex: among the neighbors holding v's right clique, one
        # reaching farthest clockwise; the left vertex first, then the
        # middle vertex, then the one soonest after v
        self.right_of = np.full(n, -1, dtype=np.int64)
        if not self.any_dominating:
            rc_src = rc.repeat(deg)
            holds = (rc_src - lc_tgt) % k < span_tgt
            rank = np.where(tgt == self.left_of.repeat(deg), 0,
                            np.where(tgt == middle.repeat(deg), 1, 2))
            # the largest key has the farthest reach, then the lowest rank,
            # then the smallest offset, which it leaves as ``-key % n``
            reach = (rc.take(tgt) - rc_src) % k
            key = (reach * 3 + 3 - rank).astype(np.int64) * n - off
            best = np.maximum.reduceat(holds * key, starts)
            self.right_of[best > 0] = items[(pos - best)[best > 0] % n]
        # a side-block neighbor carries itself and the non-neighbors up to
        # the next neighbor clockwise, never past the end of its block
        gap = np.concatenate((col[1:], col[:1])) - col
        gap[ends - 1] = col[starts] + n - col[ends - 1]
        length = np.minimum(gap, np.where(right, lo_src, n) - off)
        self.side_runs = (src[side], tgt[side], off[side], length[side])


def _reject_first(bad: np.ndarray, message: str, names=None) -> None:
    """Raise ``message`` naming the lowest vertex flagged in ``bad``, whose
    entry i stands for vertex ``names[i]`` (vertex i without ``names``)."""
    if bad.any():
        vertex = bad.argmax() if names is None else names[bad].min()
        raise ConstructionError(message, vertex=int(vertex))


# ---------------------------------------------------------------------------
# Facing-block planning, for all vertices at once.
# ---------------------------------------------------------------------------


def _plan_facings(ctx: LabelingContext) -> list[np.ndarray]:
    """The (source, target, offset, length) runs of every nonempty facing
    block, each block spread over at most two carrier arcs.

    Exactly one case applies to a vertex v, each a mask over the vertices:
      dominating vertices inside the block -> they carry it in slices;
      a counter partner of v or any dominating vertex exists -> one such
      vertex is adjacent to the whole block and carries it alone;
      a counter pair exists elsewhere -> carried by a pair member, or split
      between the right and the left vertex;
      otherwise -> split between right and left vertex, at the separator,
      or at the cut when the clique cycle has one.
    Outside the first case v's first ``count`` facing vertices route via a
    carrier ``r`` and the rest via v's left vertex.  Only these masks choose a
    case; the functions they call check geometry, not the dispatch.  The
    cases reading ``right_of`` run with no dominating vertex, and then v's
    right clique, being maximal, holds a neighbor of v: v has a right vertex.
    """
    vs = (ctx.lo < ctx.hi).nonzero()[0]
    runs = []
    if ctx.any_dominating or ctx.any_counter_pair:
        # dominating members of each block, off prefix sums over the order
        # written twice
        doms = ctx.dominating[ctx.items]
        seen = np.concatenate(([0], doms, doms)).cumsum()
        sliced = seen[ctx.pos[vs] + ctx.hi[vs]] > seen[ctx.pos[vs] + ctx.lo[vs]]
        if sliced.any():
            runs.append(_dominating_slices(ctx, vs[sliced]))
        vs = vs[~sliced]
        shared = ctx.has_counter[vs] | ctx.any_dominating
        r, count = np.empty_like(vs), ctx.hi[vs] - ctx.lo[vs]
        r[shared] = _shared_carriers(ctx, vs[shared])
        if not shared.all():
            r[~shared], count[~shared] = _counter_split(ctx, vs[~shared])
    else:
        r = ctx.right_of[vs]
        if ctx.has_cut:
            count = _cut_counts(ctx, vs, r)
        else:
            # the right vertex carries the block through the separator
            to_sep = _offsets(ctx, vs, _separators(ctx, vs))
            count = np.where(_facing(ctx, vs, to_sep), to_sep - ctx.lo[vs] + 1, 0)
    lo, hi = ctx.lo[vs], ctx.hi[vs]
    split = [np.concatenate(pair) for pair in (
        (vs, vs), (r, ctx.left_of[vs]), (lo, lo + count), (count, hi - lo - count))]
    runs.append([col[split[3] > 0] for col in split])
    return [np.concatenate(cols).astype(np.int64, copy=False) for cols in zip(*runs)]


def _facing(ctx: LabelingContext, vs: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Does ``offset[i]`` lie in the facing block of ``vs[i]``?"""
    return (ctx.lo[vs] <= offset) & (offset < ctx.hi[vs])


def _offsets(ctx: LabelingContext, vs: np.ndarray, ws) -> np.ndarray:
    """Clockwise steps from each of ``vs`` to the matching one of ``ws``."""
    return (ctx.pos[ws] - ctx.pos[vs]) % ctx.n


def _sees_all(ctx: LabelingContext, us, start, length) -> np.ndarray:
    """Is ``us[i]`` adjacent to all ``length[i]`` vertices from position
    ``start[i]`` on?  Two searches of ``edges``, and the degree if they wrap."""
    n, start = ctx.n, start % ctx.n
    key = np.multiply(us, n, dtype=np.int64) + start
    wraps = start + length > n
    return (ctx.edges.searchsorted(key + length - n * wraps)
            - ctx.edges.searchsorted(key) + ctx.cycle.degrees[us] * wraps == length)


def _sees_facing(ctx: LabelingContext, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Is ``us[i]`` adjacent to every facing vertex of ``vs[i]``?"""
    lo = ctx.lo[vs]
    return _sees_all(ctx, us, ctx.pos[vs] + lo, ctx.hi[vs] - lo)


def _dominating_slices(ctx: LabelingContext, vs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Slice each block around the dominating vertices, which ``_plan_facings``
    found in it and ``build_vertex_order`` put in a row in id order.  The
    first slice reaches back to the block's start, the last one on to its end."""
    doms = ctx.dominating.nonzero()[0]
    first, last = _offsets(ctx, vs, doms[0]), _offsets(ctx, vs, doms[-1])
    _reject_first(~(_facing(ctx, vs, first) & _facing(ctx, vs, last)),
                  "dominating run straddles the facing block boundary", vs)
    bounds = np.concatenate((ctx.lo[vs, None], first[:, None] + np.arange(1, len(doms)),
                             ctx.hi[vs, None]), axis=1)
    return (vs.repeat(len(doms)), doms[None].repeat(len(vs), axis=0).ravel(),
            bounds[:, :-1].ravel(), (bounds[:, 1:] - bounds[:, :-1]).ravel())


def _shared_carriers(ctx: LabelingContext, vs: np.ndarray) -> np.ndarray:
    """A counter partner of v or a dominating vertex, one of which
    ``_plan_facings`` found for each v, is adjacent to every facing vertex
    and to v: v's middle vertex if it is one, else the lowest id carries."""
    first_dom = ctx.dominating.argmax() if ctx.any_dominating else ctx.n
    lowest = np.minimum(ctx.partner[vs], first_dom)
    cyc, m = ctx.cycle, ctx.middle_of[vs]
    carries = ctx.dominating[m] | counter_pairs(cyc.left[vs], cyc.span_len[vs],
                                                cyc.left[m], cyc.span_len[m], cyc.k)
    u = np.where(carries, m, lowest)
    _reject_first(_facing(ctx, vs, _offsets(ctx, vs, u)),
                  "carrier lies inside the facing block", vs)
    _reject_first(~_sees_facing(ctx, u, vs),
                  "carrier misses part of the facing block", vs)
    return u


def _counter_split(ctx: LabelingContext, vs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Carrier and count of each vertex with no counter partner, when no
    vertex dominates but some counter pair exists (and so no cut: a counter
    pair's runs cross every clique boundary).  Seeing both members, v gives
    its block to the first one adjacent to all of it; seeing one, its right
    vertex carries the part of the block inside the right vertex's right
    block and its left vertex the rest, the vertex of the run crossing into
    v's left clique or one further behind."""
    # the lowest counter vertex and its lowest partner, which lies above it
    w0 = int(ctx.has_counter.argmax())
    c0 = int(ctx.partner[w0])
    a0, a1 = (_sees_all(ctx, vs, ctx.pos[u], 1) for u in (w0, c0))
    _reject_first(~(a0 | a1), "vertex sees neither member of the counter pair", vs)
    both = a0 & a1
    r = np.empty(len(vs), dtype=np.int64)
    covers = [_sees_facing(ctx, np.full(both.sum(), u), vs[both]) for u in (w0, c0)]
    _reject_first(~(covers[0] | covers[1]),
                  "neither counter member covers the facing block", vs[both])
    r[both] = np.where(covers[0], w0, c0)
    r[~both] = ctx.right_of[vs[~both]]
    length = ctx.hi[vs] - ctx.lo[vs]
    reach = (_offsets(ctx, vs, ctx.middle_of[r]) - ctx.lo[vs]) % ctx.n + 1
    return r, np.where(both, length, np.minimum(reach, length))


def _cut_counts(ctx: LabelingContext, vs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Plain case on a clique cycle with a cut (an interval graph), which
    escapes the separator's geometry: a vertex may lack a left vertex, and
    the left chain may die before the chains meet.  The order runs along
    the line from the cut head, so the facing vertices before the cut head
    lie on the right vertex r's side and the rest on the left vertex's.
    ``r`` carries the whole block when v has no left vertex (then v is the
    cut head) or when r's clique run starts with the left vertex's and so
    contains it."""
    head, lv = ctx.cut_head, ctx.left_of[vs]
    alone = lv == -1
    _reject_first(alone & (vs != head),
                  "vertex without a left vertex is not the cut head", vs)
    to_head = _offsets(ctx, vs, head)
    _reject_first(~alone & (lv != head) & ~_facing(ctx, vs, to_head),
                  "cut head is neither in the facing block nor the left vertex", vs)
    whole = alone | (ctx.cycle.left[r] == ctx.cycle.left[lv])
    # the left vertex sits at offset hi, so this holds for head == lv too
    return np.where(whole, ctx.hi[vs], to_head) - ctx.lo[vs]


def _walk_chains(ctx: LabelingContext, vs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Apex numbers of ``vs``, with the left and right iterates one step
    before the chains meet (the first ones where the apex number is 1).

    The apex number of v is the depth at which its iterated left and right
    vertices meet.  Depth 1 means the spans of the two first-step neighbors
    already meet around the far side of the clique cycle; otherwise it is
    the smallest i > 1 with the i-th left and right iterates adjacent or
    equal.

    The chains are not stepped depth by depth.  A left step from u gains
    the ``(lc[u] - lc[left_of[u]]) % k`` cliques it moves the left clique
    counterclockwise, a right step from u the ``(rc[right_of[u]] - rc[u])
    % k`` it moves the right clique clockwise, and the i-th iterates meet
    (are equal or adjacent) when the gains of both chains' first i - 1
    steps together reach the gap ``(lc[l1] - rc[r1]) % k`` between the
    first iterates.  Gains never go negative, so that rule is monotone in
    depth, and one descent over jump tables of 2^j steps (pointer
    doubling) finds the first depth where it holds.  Every step exists and
    every right step gains a clique: with no cut, dominating vertex or
    counter pair, the runs crossing into u's left clique and out of its
    right clique (u's own is shorter than k) give u a left vertex and a
    right vertex reaching past it.  The iterates found are checked to meet
    in ``edges``; that no earlier depth meets is tested against the
    depth-by-depth walks.
    """
    cycle, k = ctx.cycle, ctx.cycle.k
    li, ri = ctx.left_of[vs], ctx.right_of[vs]
    # depth 1: the first iterates share a clique, or v's clique run lies
    # strictly inside the one from ri's right clique to li's left clique
    lc_l1, rc_r1 = cycle.left[li], cycle.right[ri]
    alen, blen = cycle.span_len[vs], (lc_l1 - rc_r1) % k + 1
    inside = (alen < blen) & ((blen >= k)
                              | ((cycle.left[vs] - rc_r1) % k + alen <= blen))
    apex = np.where((lc_l1 == rc_r1) | inside, 1, 0)
    walking = (apex == 0).nonzero()[0]
    names, gap = vs[walking], (lc_l1 - rc_r1)[walking] % k
    steps, l, r = _lift_chains(ctx, li[walking], ri[walking], gap)
    nl, nr = ctx.left_of[l], ctx.right_of[r]
    _reject_first((nl != nr) & ~_sees_all(ctx, nl, ctx.pos[nr], 1),
                  "chains gained the gap without meeting", names)
    apex[walking], li[walking], ri[walking] = steps + 2, l, r
    return apex, li, ri


def _lift_chains(ctx: LabelingContext, l: np.ndarray, r: np.ndarray,
                 gap: np.ndarray) -> tuple[np.ndarray, ...]:
    """Step the left chains from ``l`` and the right chains from ``r`` as
    far as their combined clique gain stays below ``gap``: the number of
    steps taken and the iterates reached.

    Every gap is below ``k`` and every right step gains a clique (see
    ``_walk_chains``), so no chain takes ``k - 1`` steps: ``k.bit_length()``
    tables suffice, and they stop sooner once 2^j steps reach every gap.
    """
    k, lc, rc = ctx.cycle.k, ctx.cycle.left, ctx.cycle.right
    left, right = ctx.left_of, ctx.right_of
    tables = [(left, (lc - lc[left]) % k, right, (rc[right] - rc) % k)]
    while len(tables) < k.bit_length():
        jl, gl, jr, gr = tables[-1]
        if (gl[l] + gr[r] >= gap).all():
            break
        tables.append((jl[jl], gl + gl[jl], jr[jr], gr + gr[jr]))
    steps, gained = np.zeros((2, len(gap)), dtype=np.int64)
    for j in range(len(tables) - 1, -1, -1):
        jl, gl, jr, gr = tables[j]
        total = gained + gl[l] + gr[r]
        take = total < gap
        steps += take << j
        gained = np.where(take, total, gained)
        l, r = np.where(take, jl[l], l), np.where(take, jr[r], r)
    return steps, l, r


def _separators(ctx: LabelingContext, vs: np.ndarray) -> np.ndarray:
    """The separators of ``vs``: the boundary vertices splitting their
    facing blocks.

    Everything from the facing block's start through the separator routes
    via the right vertex; the rest routes via the left vertex.  With apex
    number 1 the whole block routes right.  Otherwise the one walk of the
    chains gives the left and right iterates one step before they meet,
    and the separator is the vertex before the first one, after the block
    of the right iterate's right clique, that is the left iterate or
    adjacent to it: one search among the left iterate's neighbors, which
    ``edges`` lists by position.
    """
    n = ctx.n
    apex, li, ri = _walk_chains(ctx, vs)
    walked = apex > 1
    tail = ctx.vorder.tail[ctx.cycle.right[ri]]
    _reject_first(walked & (tail == -1),
                  "empty block at the right chain's last clique", vs)
    start = (ctx.pos[tail] + 1) % n
    # li's first neighbor at or after ``start`` clockwise, else its first
    # one; li has neighbors, as it is the left vertex of a vertex
    base = li * n
    first, at, end = (ctx.edges.searchsorted(base + x) for x in (0, start, n))
    hit = ctx.edges[np.where(at < end, at, first)]
    step = np.minimum((hit - base - start) % n, (ctx.pos[li] - start) % n)
    lv = ctx.left_of[vs]
    _reject_first(walked & (step > (ctx.pos[lv] - start) % n),
                  "separator scan exhausted the facing block", vs)
    w = (start + step) % n
    to_w, lo, hi = (w - ctx.pos[vs]) % n, ctx.lo[vs], ctx.hi[vs]
    _reject_first(walked & (lo < hi) & ((to_w < lo) | (to_w > hi)),
                  "separator landed outside the facing block", vs)
    return ctx.items[np.where(walked, w, ctx.pos[lv]) - 1]


# ---------------------------------------------------------------------------
# Scheme assembly.
# ---------------------------------------------------------------------------


def _join_runs(pos: np.ndarray, src, dst, offset, length):
    """Join runs into the scheme's interval rows in one bulk pass, checking
    the scheme's shape.

    Run ``i`` assigns the ``length[i]`` vertices from ``offset[i]`` steps
    clockwise after ``src[i]`` on to arc ``(src[i], dst[i])``; ``pos`` maps
    a vertex to its order position.  Taken by source and offset, runs of
    one arc that abut become one.  The rows come out sorted by arc, the run
    that holds its target first, with offsets turned into start positions.

    ConstructionError names the lowest vertex with a joined row that starts
    at it or runs past it, with rows that cover other than n - 1 vertices,
    with rows that overlap or leave a hole when taken by offset, with an arc
    that carries more than two intervals, or with two arcs that carry two.
    Joining merges only abutting runs of one arc, so it changes no verdict.
    """
    n = len(pos)
    # one key per sort: (source, offset), stable since each source's runs come
    # as a rotated ascending run that timsort merges fast, then (source,
    # target, the run holding its target first); no key outlives its sort
    idx = (np.multiply(src, n, dtype=np.int64) + offset).argsort(kind="stable")
    src, dst, offset, length = src[idx], dst[idx], offset[idx], length[idx]
    end = offset + length
    new = changes(src, dst)
    new[1:] |= offset[1:] != end[:-1]
    # a joined run ends where its last row ends, the row before the next new one
    end = end[np.concatenate((new[1:], new[:1]))]
    src, dst, offset = src[new], dst[new], offset[new]
    _reject_first((offset < 1) | (offset >= n) | (end > n),
                  "interval covers its own source", src)
    length = end - offset
    totals = np.bincount(src, weights=length, minlength=n).astype(np.int64)
    if (totals != n - 1).any():
        v = int((totals != n - 1).argmax())
        raise ConstructionError(
            f"intervals cover {int(totals[v])} of {n - 1} destinations", vertex=v
        )
    # with every total exact, a source's rows tile its offsets 1 .. n - 1
    # iff each starts where the one before it ends, the first at 1
    expected = np.where(changes(src), 1, np.concatenate((end[-1:], end[:-1])))
    _reject_first(offset != expected, "intervals overlap or leave a hole", src)
    target = (pos[dst] - pos[src]) % n
    holds = (offset <= target) & (target < end)
    idx = ((np.multiply(src, n, dtype=np.int64) + dst) * 2 + ~holds).argsort()
    src, dst, offset, length = src[idx], dst[idx], offset[idx], length[idx]
    # a row that opens no arc is an arc's second interval, or a later one
    more = ~changes(src, dst)
    _reject_first(more[1:] & more[:-1], "an arc carries more than two intervals",
                  src[1:])
    _reject_first(np.bincount(src[more], minlength=n) > 1,
                  "more than one outgoing arc carries two intervals")
    # that sort is not stable, and an arc's two rows tie when both hold or both
    # miss its target: put them back in row order (no arc has three rows now)
    second = more.nonzero()[0]
    was, now = idx[second - 1], idx[second]
    turned = second[(was > now) & (holds[was] == holds[now])]
    offset[turned - 1], offset[turned] = offset[turned], offset[turned - 1]
    length[turned - 1], length[turned] = length[turned], length[turned - 1]
    return src, dst, (pos[src] + offset) % n, length


def build_scheme(model: ArcModel) -> RoutingScheme:
    """Full pipeline from arc model to checked routing scheme.

    Joining the runs checks the scheme's shape: no interval holds its
    source, each source's intervals tile the other n - 1 vertices, and no
    arc carries more than two, nor more than one arc per source two.

    Raises NotRealCircularArc (from ``build_clique_cycle``) when the arcs
    leave part of the circle uncovered.
    """
    cycle = build_clique_cycle(model)
    ctx = LabelingContext(cycle, build_vertex_order(cycle))
    runs = [np.concatenate(cols) for cols in zip(ctx.side_runs, _plan_facings(ctx))]
    order = ctx.order
    del cycle, ctx  # the join is the peak, so what it does not need goes first
    return RoutingScheme(order, *_join_runs(order.pos, *runs))
