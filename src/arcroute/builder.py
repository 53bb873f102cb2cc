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
clique cycle has a cut.  Every case reads the arc geometry alone: a build
runs no graph search.

Each block is a run of offsets clockwise after the vertex, and each label
assignment a run (target, offset, length).  One pass over the directed edges
gives the frames of all vertices and the runs of every right and left block;
only the facing blocks are planned vertex by vertex.  All runs are joined in
one bulk pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .arc_model import ArcModel, Graph, _is_json_int, intersection_graph
from .clique_cycle import CliqueCycle, build_clique_cycle
from .errors import ConstructionError, StructuralSchemeError
from .ring_order import CyclicOrder


@dataclass(eq=False)
class VertexOrder:
    """Cyclic vertex order grouped in per-clique blocks.

    ``head[c]`` / ``tail[c]`` bound the block of vertices whose span begins
    at clique ``c`` (-1 when no vertex starts there).
    """

    order: CyclicOrder
    head: np.ndarray
    tail: np.ndarray

    @property
    def items(self) -> tuple[int, ...]:
        return self.order.items


def build_vertex_order(cycle: CliqueCycle) -> VertexOrder:
    """Emit vertices clique block by clique block.

    The block of clique ``c`` holds the vertices whose clique run begins
    at ``c``.  Inside a block every earlier vertex reaches at most as far
    clockwise as the later ones, so blocks sort by span length; equal
    spans (true twins) break by vertex id.  The all-adjacent vertices are
    placed apart from their runs: they close the block of clique ``1 % k``
    in id order, as if each ran around the whole cycle from there.
    """
    k = cycle.k
    buckets: list[list[int]] = [[] for _ in range(k)]
    for v in np.flatnonzero(~cycle.dominating).tolist():
        buckets[int(cycle.left[v])].append(v)
    items: list[int] = []
    head = np.full(k, -1, dtype=np.int64)
    tail = np.full(k, -1, dtype=np.int64)
    for c in range(k):
        block = sorted(buckets[c], key=lambda v: (int(cycle.span_len[v]), v))
        if c == 1 % k:
            block += np.flatnonzero(cycle.dominating).tolist()
        if block:
            head[c] = block[0]
            tail[c] = block[-1]
            items.extend(block)
    return VertexOrder(CyclicOrder(items), head, tail)


@dataclass
class VertexFrame:
    """Per-vertex view of the order: distinguished neighbors and blocks.

    The blocks are three runs of offsets clockwise after v: offsets
    ``1 .. lo - 1`` are the right block, ``lo .. hi - 1`` the facing block
    and ``hi .. n - 1`` the left block, each empty when its bounds meet.
    """

    v: int
    left_vertex: int | None
    middle_vertex: int
    lo: int
    hi: int


class LabelingContext:
    """Shared precomputed state for labeling all vertices of one graph.

    ``has_cut``: a clique boundary ``c -> c + 1`` (a *cut*) is crossed by no
    clique run, so the arcs describe an interval graph.  ``cut_head`` is the
    first vertex of clique ``c + 1``'s block, or ``None`` without a cut.

    One pass over the directed edges gives every vertex's frame: its
    distinguished neighbors ``middle_of``, ``left_of`` and ``right_of`` (-1
    where undefined: for dominating vertices, and ``right_of`` throughout
    when some vertex dominates) and its block bounds ``lo`` and ``hi`` (both
    ``n`` for a dominating vertex: one right block of everything), and the
    (source, target, offset, length) ``side_runs`` of all right and left blocks.
    """

    def __init__(self, cycle: CliqueCycle, graph: Graph, vorder: VertexOrder):
        self.cycle = cycle
        self.graph = graph
        self.vorder = vorder
        self.n = graph.n
        self.order = vorder.order
        self.items = np.asarray(self.order.items, dtype=np.int64)
        # the order written out twice: any block is one slice of it, and
        # the slices handed out are views, so the array is read-only
        self._ring = np.concatenate([self.items, self.items])
        self._ring.flags.writeable = False
        self.pos = np.empty(self.n, dtype=np.int64)
        self.pos[self.items] = np.arange(self.n, dtype=np.int64)
        self.counter = cycle.counter_matrix()
        self.has_counter = self.counter.any(axis=1)
        self.any_counter_pair = bool(self.has_counter.any())
        pairs = np.argwhere(self.counter)
        self.first_counter_pair = (tuple(sorted(pairs[0].tolist()))
                                   if len(pairs) else None)
        self.dominating = cycle.dominating
        self.any_dominating = bool(self.dominating.any())
        k = cycle.k
        # run v crosses boundaries left[v] .. left[v] + span_len[v] - 2
        lo = cycle.left
        hi = lo + cycle.span_len - 1
        crossing = np.cumsum(np.bincount(lo, minlength=2 * k)
                             - np.bincount(hi, minlength=2 * k))
        cuts = np.flatnonzero(crossing[:k] + crossing[k:] == 0)
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
        marks = np.where(np.tile(head != -1, 2), np.arange(2 * k), -1)
        last = np.maximum.accumulate(marks)[k + rc] % k
        _reject_first(~dom & ((last - lc) % k >= span),
                      "no block found inside own span")
        middle = tail[last]
        # every directed edge, by source and then clockwise by the target's
        # position; ``off`` counts the steps from source to target, and
        # ``np.repeat(x, deg)`` is the faster ``x[src]``
        adj, deg = self.graph.adj[:, self.items], self.graph.degrees
        src, col = (a.astype(np.int32) for a in np.nonzero(adj))
        # ``starts[i]:ends[i]`` holds the edges of the i-th source that has any
        has = deg > 0
        ends = np.cumsum(deg)[has]
        starts = ends - deg[has]
        tgt = items[col]
        off = (col - np.repeat(pos, deg)) % n
        # left vertex: the candidate neighbor farthest behind v (reaching
        # further counterclockwise, not dominating, no counter partner), or
        # the head of v's block when that lies further behind
        lc_src, lc_tgt = np.repeat(lc, deg), lc[tgt]
        cand = ((lc_src - lc_tgt) % k < span[tgt]) & (lc_tgt != lc_src) & ~dom[tgt]
        if self.any_counter_pair:
            cand &= ~self.counter[:, self.items][adj]
        back = np.zeros(n, dtype=np.int32)
        back[has] = np.maximum.reduceat(np.where(cand, n - off, 0), starts)
        back = np.where(dom, 0, np.maximum(back, (pos - pos[head[lc]]) % n))
        self.left_of = np.where(back > 0, items[(pos - back) % n], -1)
        self.middle_of = np.where(dom, -1, middle)
        self.lo = lo = np.where(dom, n, (pos[middle] - pos) % n + 1)
        self.hi = hi = n - back
        _reject_first(lo > hi, "blocks wrapped onto themselves")
        # right block all adjacent, facing block non-adjacent except dominating
        lo_src = np.repeat(lo, deg)
        right = off < lo_src
        _reject_first(np.bincount(src[right], minlength=n) != lo - 1,
                      "right block holds a non-neighbor")
        side = right | (off >= np.repeat(hi, deg))
        _reject_first(np.bincount(src[~side & ~dom[tgt]], minlength=n) > 0,
                      "facing block holds a non-dominating neighbor")
        _reject_first((hi < n) & ~adj[np.arange(n), (pos + hi) % n],
                      "left block must start at the left vertex")
        # right vertex: among the neighbors holding v's right clique, one
        # reaching farthest clockwise; the left vertex first, then the
        # middle vertex, then the one soonest after v
        self.right_of = np.full(n, -1, dtype=np.int64)
        if not self.any_dominating:
            rc_src = np.repeat(rc, deg)
            holds = (rc_src - lc_tgt) % k < span[tgt]
            rank = np.where(tgt == np.repeat(self.left_of, deg), 0,
                            np.where(tgt == np.repeat(middle, deg), 1, 2))
            # the largest key has the farthest reach, then the lowest rank,
            # then the smallest offset, which it leaves as ``-key % n``
            reach = (rc[tgt] - rc_src) % k
            key = (reach * 3 + 3 - rank).astype(np.int64) * n - off
            best = np.zeros(n, dtype=np.int64)
            best[has] = np.maximum.reduceat(np.where(holds, key, 0), starts)
            self.right_of[best > 0] = items[(pos - best)[best > 0] % n]
        # a side-block neighbor carries itself and the non-neighbors up to
        # the next neighbor clockwise, never past the end of its block
        gap = np.roll(col, -1) - col
        gap[ends - 1] = col[starts] + n - col[ends - 1]
        length = np.minimum(gap, np.where(right, lo_src, n) - off)
        self.side_runs = (src[side], tgt[side], off[side], length[side])

    # -- position helpers --------------------------------------------------

    def fwd(self, a: int, b: int) -> int:
        """Clockwise steps from vertex a to vertex b in the order."""
        return int((self.pos[b] - self.pos[a]) % self.n)

    def vertex_at(self, position: int) -> int:
        return int(self.items[position % self.n])

    def succ(self, v: int) -> int:
        return self.vertex_at(self.pos[v] + 1)

    def pred(self, v: int) -> int:
        return self.vertex_at(self.pos[v] - 1)

    def run(self, v: int, a: int, b: int) -> np.ndarray:
        """Vertices at offsets ``a .. b - 1`` clockwise after v
        (``0 <= a <= b <= n``)."""
        p = int(self.pos[v])
        return self._ring[p + a:p + b]

    # -- dominating-run geometry --------------------------------------------

    def dominating_run(self) -> tuple[int, int]:
        """First and last of the dominating vertices in the order.

        ``build_vertex_order`` places them consecutively in id order at the
        end of the block of clique ``1 % k``, so they are the first and the
        last dominating id, also when every vertex dominates.
        """
        doms = np.flatnonzero(self.dominating)
        if len(doms) == 0:
            raise ConstructionError("no dominating vertices to locate")
        if (np.diff(self.pos[doms]) != 1).any():
            raise ConstructionError(
                "dominating vertices are not consecutive in the order"
            )
        return int(doms[0]), int(doms[-1])

    def right_vertex_of(self, v: int) -> int:
        """``right_of[v]``, raising where v has no right vertex."""
        if self.right_of[v] == -1:
            raise ConstructionError("no neighbor shares the right clique", vertex=v)
        return int(self.right_of[v])


def _reject_first(bad: np.ndarray, message: str) -> None:
    """Raise ``message`` naming the lowest vertex id flagged in ``bad``."""
    if bad.any():
        raise ConstructionError(message, vertex=int(np.argmax(bad)))


def compute_frame(ctx: LabelingContext, v: int) -> VertexFrame:
    """Distinguished neighbors and blocks of a non-dominating vertex, read
    from the context's frame arrays.

    The right block runs from v's successor through its middle vertex
    (empty when the middle vertex is v itself), the left block from v's
    left vertex up to v (empty without a left vertex), and the facing block
    is what lies between them.
    """
    if ctx.dominating[v]:
        raise ConstructionError("frames are undefined for dominating vertices",
                                vertex=v)
    lv = int(ctx.left_of[v])
    return VertexFrame(v=v, left_vertex=None if lv == -1 else lv,
                       middle_vertex=int(ctx.middle_of[v]),
                       lo=int(ctx.lo[v]), hi=int(ctx.hi[v]))


# ---------------------------------------------------------------------------
# Assignment planning.  A run is (target, offset, length): the `length`
# vertices from `offset` steps clockwise after v on are assigned to arc
# (v, target).
# ---------------------------------------------------------------------------

Plan = list[tuple[int, int, int]]


def _faces(frame: VertexFrame, ctx: LabelingContext, w: int) -> bool:
    """Is w in the facing block of the frame's vertex?"""
    return frame.lo <= ctx.fwd(frame.v, w) < frame.hi


def _plan_facing(frame: VertexFrame, ctx: LabelingContext) -> Plan:
    """Distribute the facing block over at most two carrier arcs.

    Exactly one case applies:
      dominating vertices inside the block -> they carry it in slices;
      a counter partner of v or any dominating vertex exists -> one such
      vertex is adjacent to the whole block and carries it alone;
      a counter pair exists elsewhere -> carried by the pair member / the
      farthest-reaching neighbors, split by position;
      otherwise -> split between right and left vertex, at the separator,
      or at the cut when the clique cycle has one.
    """
    if frame.lo == frame.hi:
        return []
    members = ctx.run(frame.v, frame.lo, frame.hi)
    if ctx.dominating[members].any():
        return _facing_via_dominating_members(frame, ctx)
    if ctx.has_counter[frame.v] or ctx.any_dominating:
        return _facing_via_shared_neighbor(frame, ctx, members)
    if ctx.any_counter_pair:
        return _facing_near_counter_pair(frame, ctx, members)
    return _facing_via_separator(frame, ctx)


def _facing_via_dominating_members(frame: VertexFrame,
                                   ctx: LabelingContext) -> Plan:
    """Dominating vertices sit consecutively; slice the block around them."""
    v = frame.v
    d_head, d_tail = ctx.dominating_run()
    if not (_faces(frame, ctx, d_head) and _faces(frame, ctx, d_tail)):
        raise ConstructionError(
            "dominating run straddles the facing block boundary", vertex=v
        )
    first, last = ctx.fwd(v, d_head), ctx.fwd(v, d_tail)
    # the first slice reaches back to the block's start, the last one on
    # to its end
    bounds = [frame.lo, *range(first + 1, last + 1), frame.hi]
    doms = ctx.run(v, first, last + 1).tolist()
    return [(d, a, b - a) for d, a, b in zip(doms, bounds, bounds[1:])]


def _facing_via_shared_neighbor(frame: VertexFrame, ctx: LabelingContext,
                                members: np.ndarray) -> Plan:
    """A counter partner of v or a dominating vertex is adjacent to every
    facing vertex and to v; give it the whole block."""
    v, m = frame.v, frame.middle_vertex
    carriers = ctx.dominating | ctx.counter[v]
    if not carriers.any():
        raise ConstructionError("no carrier for the facing block", vertex=v)
    u = m if carriers[m] else int(np.argmax(carriers))
    if _faces(frame, ctx, u):
        raise ConstructionError("carrier lies inside the facing block", vertex=v)
    if not ctx.graph.adj[u][members].all():
        raise ConstructionError("carrier misses part of the facing block",
                                vertex=v)
    return [(u, frame.lo, frame.hi - frame.lo)]


def _facing_near_counter_pair(frame: VertexFrame, ctx: LabelingContext,
                              members: np.ndarray) -> Plan:
    """No dominating vertices, v itself has no counter partner, but some
    counter pair exists; v is adjacent to at least one of its members.
    A counter pair's runs cross every clique boundary, so there is no cut."""
    v = frame.v
    w0, c0 = ctx.first_counter_pair
    adj = ctx.graph.adj
    a0, a1 = bool(adj[v, w0]), bool(adj[v, c0])
    if not (a0 or a1):
        raise ConstructionError(
            "vertex sees neither member of the counter pair", vertex=v
        )
    length = frame.hi - frame.lo
    if a0 and a1:
        for u in (w0, c0):
            if adj[u][members].all():
                return [(u, frame.lo, length)]
        raise ConstructionError(
            "neither counter member covers the facing block", vertex=v
        )
    r = ctx.right_vertex_of(v)
    # the right vertex carries the part of the block inside its right block
    reach = (ctx.fwd(v, int(ctx.middle_of[r])) - frame.lo) % ctx.n + 1
    count = min(reach, length)
    if count < length and frame.left_vertex is None:
        raise ConstructionError("left vertex missing near a counter pair",
                                vertex=v)
    return _split_facing(frame, r, count)


def _facing_via_separator(frame: VertexFrame, ctx: LabelingContext) -> Plan:
    """Plain case: the right vertex ``r`` carries a prefix of the block,
    the left vertex the rest.

    Without a cut the prefix ends at the separator.  A clique cycle with a
    cut (an interval graph) escapes the separator's geometry: a vertex may
    lack a left vertex, and the left chain may die before the chains meet.
    There the order runs along the line from the cut head, so the facing
    vertices before the cut head lie on r's side and the rest on the left
    vertex's.  ``r`` carries the whole block when v has no left vertex
    (then v is the cut head) or when r's clique run starts with the left
    vertex's and so contains it.
    """
    v, lv, head = frame.v, frame.left_vertex, ctx.cut_head
    r = right_vertex(frame, ctx)
    if not ctx.has_cut:
        s = separator(frame, ctx)
        count = ctx.fwd(v, s) - frame.lo + 1 if _faces(frame, ctx, s) else 0
    elif lv is None:
        if head != v:
            raise ConstructionError(
                "vertex without a left vertex is not the cut head", vertex=v)
        count = frame.hi - frame.lo
    elif head != lv and not _faces(frame, ctx, head):
        raise ConstructionError(
            "cut head is neither in the facing block nor the left vertex", vertex=v)
    elif ctx.cycle.left[r] == ctx.cycle.left[lv]:
        count = frame.hi - frame.lo
    else:
        # the left vertex sits at offset hi, so this holds for head == lv too
        count = ctx.fwd(v, head) - frame.lo
    return _split_facing(frame, r, count)


def _split_facing(frame: VertexFrame, r: int, count: int) -> Plan:
    """The first ``count`` facing vertices route via ``r``, the rest via
    the left vertex."""
    lo, hi = frame.lo, frame.hi
    plan = [(r, lo, count), (frame.left_vertex, lo + count, hi - lo - count)]
    return [run for run in plan if run[2] > 0]


def right_vertex(frame: VertexFrame, ctx: LabelingContext) -> int:
    """Farthest-clockwise-reaching neighbor; only defined when the graph
    has no dominating vertices and v has no counter partner."""
    if ctx.any_dominating:
        raise ConstructionError("right vertex undefined with dominating vertices")
    if ctx.has_counter[frame.v]:
        raise ConstructionError("right vertex undefined for counter vertices",
                                vertex=frame.v)
    return ctx.right_vertex_of(frame.v)


def apex_number(frame: VertexFrame, ctx: LabelingContext) -> int:
    """Depth at which the iterated left/right vertices of v meet.

    Depth 1 means the spans of the two first-step neighbors already meet
    around the far side of the clique cycle; otherwise it is the smallest
    i > 1 with the i-th left and right iterates adjacent or equal.
    """
    return _walk_chains(frame, ctx)[0]


def _walk_chains(frame: VertexFrame, ctx: LabelingContext) -> tuple[int, int, int]:
    """Apex number of v, with the left and right iterates one step before
    the chains meet (the first ones when the apex number is 1)."""
    if ctx.any_dominating or ctx.any_counter_pair:
        raise ConstructionError("apex undefined with dominating or counter vertices")
    v = frame.v
    li = int(ctx.left_of[v])
    if li == -1:
        raise ConstructionError("left vertex missing", vertex=v)
    ri = ctx.right_vertex_of(v)
    cycle = ctx.cycle
    k = cycle.k
    lc_l1 = int(cycle.left[li])
    rc_r1 = int(cycle.right[ri])
    if lc_l1 == rc_r1 or _interval_proper_subset(
        k, int(cycle.left[v]), int(cycle.span_len[v]),
        rc_r1, (lc_l1 - rc_r1) % k + 1,
    ):
        return 1, li, ri
    for i in range(2, ctx.n + 2):
        nl = int(ctx.left_of[li])
        if nl == -1:
            raise ConstructionError("left chain broke", vertex=v)
        nr = ctx.right_vertex_of(ri)
        if nl == nr or ctx.graph.adjacent(nl, nr):
            return i, li, ri
        li, ri = nl, nr
    raise ConstructionError("left/right chains never met", vertex=v)


def _interval_proper_subset(k: int, a: int, alen: int, b: int, blen: int) -> bool:
    """Is the clique interval (a, alen) strictly inside (b, blen)?"""
    if alen >= blen:
        return False
    if blen >= k:
        return True
    return (a - b) % k + alen <= blen


def separator(frame: VertexFrame, ctx: LabelingContext) -> int:
    """Boundary vertex splitting the facing block.

    Everything from the facing block's start through the separator routes
    via the right vertex; the rest routes via the left vertex.  With apex
    number 1 the whole block routes right.  Otherwise the one walk of the
    chains gives the left and right iterates one step before they meet,
    and the separator is the vertex before the first one, after the block
    of the right iterate's right clique, that is the left iterate or
    adjacent to it.
    """
    apex, li, ri = _walk_chains(frame, ctx)
    v = frame.v
    lv = frame.left_vertex
    if apex == 1:
        return ctx.pred(lv)
    c = int(ctx.cycle.right[ri])
    tail = int(ctx.vorder.tail[c])
    if tail == -1:
        raise ConstructionError("empty block at the right chain's last clique",
                                vertex=v)
    w = ctx.succ(tail)
    for _ in range(ctx.fwd(w, lv) + 1):
        if w == li or ctx.graph.adjacent(w, li):
            break
        w = ctx.succ(w)
    else:
        raise ConstructionError("separator scan exhausted the facing block",
                                vertex=v)
    if frame.lo < frame.hi and not frame.lo <= ctx.fwd(v, w) <= frame.hi:
        raise ConstructionError("separator landed outside the facing block",
                                vertex=v)
    return ctx.pred(w)


# ---------------------------------------------------------------------------
# Scheme assembly.
# ---------------------------------------------------------------------------


class RoutingScheme:
    """A cyclic vertex order plus the intervals of every directed arc.

    Interval ``i`` labels arc ``(src[i], dst[i])`` with the ``length[i]``
    order positions clockwise from ``start[i]``.  The four arrays are kept
    sorted by arc, each arc's intervals in their given order; an arc
    without intervals has no rows.
    """

    __slots__ = ("order", "src", "dst", "start", "length", "_route_tables")

    def __init__(self, order: CyclicOrder, src, dst, start, length):
        self.order = order
        bad = StructuralSchemeError(
            "src, dst, start and length must be one-dimensional integer "
            "arrays of equal length")
        try:
            arrays = [np.asarray(a) for a in (src, dst, start, length)]
        except (TypeError, ValueError) as exc:  # ragged
            raise bad from exc
        # a cast would truncate floats and read booleans as 0 / 1; an empty
        # list is float64, so only non-empty arrays must hold integers
        if any(a.size and a.dtype.kind not in "iu" for a in arrays):
            raise bad
        self.src, self.dst, self.start, self.length = (
            a.astype(np.int64, copy=False) for a in arrays)
        shapes = {a.shape for a in (self.src, self.dst, self.start, self.length)}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise bad
        # the verifier bisects on the source column
        key = self.src * len(order.items) + self.dst
        if len(key) > 1 and (np.diff(key) < 0).any():
            idx = np.argsort(key, kind="stable")
            self.src = self.src[idx]
            self.dst = self.dst[idx]
            self.start = self.start[idx]
            self.length = self.length[idx]
        # the graphs the verifier has checked the scheme against, each with
        # its forwarding table once a route needs it
        self._route_tables: dict[Graph, np.ndarray | None] = {}

    @property
    def n(self) -> int:
        return len(self.order.items)

    def to_json(self) -> str:
        items = self.order.items
        order = ", ".join(str(v) for v in items)
        grouped: dict[tuple[int, int], list[str]] = {}
        n = len(items)
        for v, w, s, ln in zip(self.src.tolist(), self.dst.tolist(),
                               self.start.tolist(), self.length.tolist()):
            grouped.setdefault((v, w), []).append(
                f"[{items[s]}, {items[(s + ln - 1) % n]}]"
            )
        entries = [
            f'"{v}->{w}": [{", ".join(grouped[(v, w)])}]'
            for (v, w) in sorted(grouped)
        ]
        return f'{{"order": [{order}], "labels": {{{", ".join(entries)}}}}}'

    @classmethod
    def from_json(cls, data: bytes | str) -> "RoutingScheme":
        import json

        if isinstance(data, bytes):
            try:
                data = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StructuralSchemeError(f"scheme is not UTF-8 text: {exc}") from exc
        try:
            obj = json.loads(data, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise StructuralSchemeError(f"invalid scheme JSON: {exc}") from exc
        if not isinstance(obj, dict) or "order" not in obj or "labels" not in obj:
            raise StructuralSchemeError('scheme needs "order" and "labels"')
        raw_order, raw_labels = obj["order"], obj["labels"]
        if not (isinstance(raw_order, list) and all(map(_is_json_int, raw_order))):
            raise StructuralSchemeError('"order" must be a list of integers')
        if not isinstance(raw_labels, dict):
            raise StructuralSchemeError('"labels" must be an object')
        try:
            order = CyclicOrder(raw_order)
        except ValueError as exc:
            raise StructuralSchemeError(str(exc)) from exc
        n = order.n
        keys, lists = list(raw_labels), list(raw_labels.values())
        for key, ivls in zip(keys, lists):
            if _ARC_KEY.fullmatch(key) is None or not isinstance(ivls, list):
                raise StructuralSchemeError(f"bad labels entry {key!r}")
        ends = list(chain.from_iterable(lists))
        pairs = set(map(type, ends)) <= {list} and set(map(len, ends)) <= {2}
        # type() is exact: JSON booleans decode to bool, a subclass of int
        if not (pairs and set(map(type, chain.from_iterable(ends))) <= {int}):
            key = next(k for k, ivls in zip(keys, lists) if not all(
                type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
                for e in ivls))
            raise StructuralSchemeError(
                f"bad labels entry {key!r}: intervals must be pairs of integers"
            )
        try:
            arcs = np.array(" ".join(keys).replace("->", " ").split(),
                            dtype=np.int64).reshape(-1, 2)
            ab = np.array(ends, dtype=np.int64).reshape(-1, 2)
        except OverflowError as exc:
            raise StructuralSchemeError("vertex id outside the order") from exc
        if (arcs >= n).any():
            key = keys[int(np.flatnonzero((arcs >= n).any(axis=1))[0])]
            raise StructuralSchemeError(f"arc {key!r} outside the order")
        outside = ((ab < 0) | (ab >= n)).any(axis=1)
        if outside.any():
            a, b = ab[outside][0].tolist()
            raise StructuralSchemeError(f"interval [{a}, {b}] outside the order")
        pos = np.argsort(np.asarray(order.items, dtype=np.int64))
        start = pos[ab[:, 0]]
        counts = list(map(len, lists))
        return cls(order, np.repeat(arcs[:, 0], counts), np.repeat(arcs[:, 1], counts),
                   start, (pos[ab[:, 1]] - start) % n + 1)


# canonical arc key: two decimal vertex ids without sign or leading zero
_ARC_KEY = re.compile(r"(?:0|[1-9][0-9]*)->(?:0|[1-9][0-9]*)")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` object hook that rejects a key given twice."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise StructuralSchemeError("scheme JSON repeats an object key")
    return obj


def _join_runs(pos: np.ndarray, src, dst, offset, length):
    """Join runs into the scheme's interval rows, in one bulk pass.

    Run ``i`` assigns the ``length[i]`` vertices from ``offset[i]`` steps
    clockwise after ``src[i]`` on to arc ``(src[i], dst[i])``; ``pos`` maps
    a vertex to its order position.  Taken by source and offset, runs of
    one arc that abut become one.  The rows come out sorted by arc, the run
    that holds its target first, with offsets turned into start positions.
    """
    n = len(pos)
    idx = np.lexsort((offset, src))
    src, dst, offset, length = src[idx], dst[idx], offset[idx], length[idx]
    end = offset + length
    new = np.ones(len(src), dtype=bool)
    new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]) | (offset[1:] != end[:-1])
    # a joined run ends where its last row ends, the row before the next new one
    length = end[np.roll(new, -1)] - offset[new]
    src, dst, offset = src[new], dst[new], offset[new]
    target = (pos[dst] - pos[src]) % n
    holds = (offset <= target) & (target < offset + length)
    idx = np.lexsort((~holds, dst, src))
    src, dst, offset, length = src[idx], dst[idx], offset[idx], length[idx]
    return src, dst, (pos[src] + offset) % n, length


def build_scheme(model: ArcModel) -> RoutingScheme:
    """Full pipeline from arc model to checked routing scheme.

    Raises NotRealCircularArc (from ``build_clique_cycle``) when the arcs
    leave part of the circle uncovered.
    """
    graph = intersection_graph(model)
    cycle = build_clique_cycle(model, graph)
    vorder = build_vertex_order(cycle)
    ctx = LabelingContext(cycle, graph, vorder)
    facing = [(v, *run) for v in np.flatnonzero(ctx.lo < ctx.hi).tolist()
              for run in _plan_facing(compute_frame(ctx, v), ctx)]
    facing = np.array(facing, dtype=np.int64).reshape(-1, 4).T
    runs = (np.concatenate(cols) for cols in zip(ctx.side_runs, facing))
    src, dst, start, length = _join_runs(ctx.pos, *runs)
    _check_scheme_shape(ctx, src, dst, start, length)
    return RoutingScheme(ctx.order, src, dst, start, length)


def _check_scheme_shape(ctx: LabelingContext, src, dst, start, length) -> None:
    """Per-vertex strictness, exact tiling, and the two-interval shape."""
    n = ctx.n
    if n == 1:
        return
    rel = (start - ctx.pos[src]) % n
    if (rel < 1).any() or (rel + length > n).any():
        v = int(src[(rel < 1) | (rel + length > n)][0])
        raise ConstructionError("interval covers its own source", vertex=v)
    totals = np.bincount(src, weights=length, minlength=n).astype(np.int64)
    if (totals != n - 1).any():
        v = int(np.flatnonzero(totals != n - 1)[0])
        raise ConstructionError(
            f"intervals cover {int(totals[v])} of {n - 1} destinations", vertex=v
        )
    # with per-vertex totals exact, the runs of a source tile its offsets
    # 1 .. n - 1 iff, taken by offset, each starts where the previous ends
    idx = np.lexsort((rel, src))
    by_src, by_rel = src[idx], rel[idx]
    expected = np.ones_like(by_rel)
    expected[1:] = by_rel[:-1] + length[idx[:-1]]
    expected[1:][by_src[1:] != by_src[:-1]] = 1
    if (by_rel != expected).any():
        v = int(by_src[by_rel != expected][0])
        raise ConstructionError("intervals overlap or leave a hole", vertex=v)
    arcs, per_arc = np.unique(src * n + dst, return_counts=True)
    if (per_arc > 2).any():
        v = int(arcs[per_arc > 2][0] // n)
        raise ConstructionError("an arc carries more than two intervals",
                                vertex=v)
    doubles = np.bincount(arcs[per_arc == 2] // n, minlength=n)
    if (doubles > 1).any():
        v = int(np.flatnonzero(doubles > 1)[0])
        raise ConstructionError("more than one outgoing arc carries two intervals",
                                vertex=v)
