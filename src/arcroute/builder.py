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

Label assignments are planned as (target, start position, length) triples
so the full build stays in bulk integer arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .arc_model import ArcModel, Graph, _is_json_int, intersection_graph
from .clique_cycle import CliqueCycle, build_clique_cycle
from .errors import ConstructionError, StructuralSchemeError
from .ring_order import CyclicOrder, RingInterval


class VertexOrder:
    """Cyclic vertex order grouped in per-clique blocks.

    ``head[c]`` / ``tail[c]`` bound the block of vertices whose span begins
    at clique ``c`` (-1 when no vertex starts there).
    """

    __slots__ = ("order", "head", "tail")

    def __init__(self, order: CyclicOrder, head: np.ndarray, tail: np.ndarray):
        self.order = order
        self.head = head
        self.tail = tail

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

    Blocks are ring-intervals in the vertex order (``None`` when empty).
    """

    v: int
    left_vertex: int | None
    middle_vertex: int
    right_block: RingInterval | None
    facing_block: RingInterval | None
    left_block: RingInterval | None


class LabelingContext:
    """Shared precomputed state for labeling all vertices of one graph.

    ``has_cut``: a clique boundary ``c -> c + 1`` (a *cut*) is crossed by no
    clique run, so the arcs describe an interval graph.  ``cut_head`` is the
    first vertex of clique ``c + 1``'s block, or ``None`` without a cut.
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
        self.first_counter_pair: tuple[int, int] | None = None
        if self.any_counter_pair:
            u = int(np.flatnonzero(self.has_counter)[0])
            w = int(np.flatnonzero(self.counter[u])[0])
            self.first_counter_pair = (min(u, w), max(u, w))
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
        # nearest clique at or counterclockwise of c with a nonempty block
        prev_nonempty = np.full(k, -1, dtype=np.int64)
        last = -1
        for c in list(range(k)) * 2:
            if vorder.head[c] != -1:
                last = c
            prev_nonempty[c] = last
        self.prev_nonempty = prev_nonempty
        self._left_of = np.full(self.n, -2, dtype=np.int64)
        self._right_of = np.full(self.n, -1, dtype=np.int64)

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

    def block_vertices(self, block: RingInterval) -> np.ndarray:
        lo = int(self.pos[block.a])
        return self._ring[lo:lo + self.block_length(block)]

    def block_contains(self, block: RingInterval, v: int) -> bool:
        return self.fwd(block.a, v) <= self.fwd(block.a, block.b)

    def block_length(self, block: RingInterval) -> int:
        return self.fwd(block.a, block.b) + 1

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

    # -- distinguished neighbors ---------------------------------------------

    def middle_vertex_of(self, v: int) -> int:
        """Last vertex after v whose clique run starts inside v's span.

        Found via the last nonempty block within the span, so no scan of
        the order is needed.  Returns v itself when no such vertex exists.
        """
        cyc = self.cycle
        k = cyc.k
        lc = int(cyc.left[v])
        span = int(cyc.span_len[v])
        c_star = int(self.prev_nonempty[int(cyc.right[v])])
        # the walk stops at v's own block at the latest, so c_star is in span
        if (c_star - lc) % k >= span:
            raise ConstructionError("no block found inside own span", vertex=v)
        return int(self.vorder.tail[c_star])

    def left_vertex_of(self, v: int) -> int | None:
        """The candidate neighbor farthest behind v in the order.

        Candidates are neighbors that reach strictly further
        counterclockwise than v (skipping dominating vertices and counter
        partners of v) plus the same-block vertices placed before v.
        """
        cached = self._left_of[v]
        if cached != -2:
            return None if cached == -1 else int(cached)
        cyc = self.cycle
        k = cyc.k
        lc = int(cyc.left[v])
        best = -1
        best_dist = 0
        nb = self.graph.neighbors[v]
        if len(nb):
            reach = ((lc - cyc.left[nb]) % k) < cyc.span_len[nb]
            mask = (
                reach
                & (cyc.left[nb] != lc)
                & ~self.dominating[nb]
                & ~self.counter[v, nb]
            )
            if mask.any():
                cand = nb[mask]
                dists = (self.pos[v] - self.pos[cand]) % self.n
                i = int(np.argmax(dists))
                best = int(cand[i])
                best_dist = int(dists[i])
        h = int(self.vorder.head[lc])
        if h != v:
            d = self.fwd(h, v)
            if d > best_dist:
                best, best_dist = h, d
        self._left_of[v] = best
        return None if best == -1 else best

    def right_vertex_of(self, v: int) -> int:
        """Neighbor reaching farthest clockwise from v's right clique;
        prefers the left vertex, then the middle vertex, then the candidate
        soonest after v."""
        cached = self._right_of[v]
        if cached != -1:
            return int(cached)
        cyc = self.cycle
        k = cyc.k
        rc = int(cyc.right[v])
        nb = self.graph.neighbors[v]
        cand = nb[((rc - cyc.left[nb]) % k) < cyc.span_len[nb]]
        if len(cand) == 0:
            raise ConstructionError("no neighbor shares the right clique", vertex=v)
        reach = (cyc.right[cand] - rc) % k
        best_set = {int(x) for x in cand[reach == int(reach.max())]}
        best = self.left_vertex_of(v)
        if best not in best_set:
            m = self.middle_vertex_of(v)
            if m != v and m in best_set:
                best = m
            else:
                best = min(best_set, key=lambda u: self.fwd(v, u))
        self._right_of[v] = best
        return best


def compute_frame(ctx: LabelingContext, v: int) -> VertexFrame:
    """Blocks and distinguished neighbors of a non-dominating vertex."""
    if ctx.dominating[v]:
        raise ConstructionError("frames are undefined for dominating vertices",
                                vertex=v)
    n = ctx.n
    m = ctx.middle_vertex_of(v)
    right_block = RingInterval(ctx.succ(v), m) if m != v else None
    lv = ctx.left_vertex_of(v)
    left_block = RingInterval(lv, ctx.pred(v)) if lv is not None else None
    boundary = lv if lv is not None else v
    gap = ctx.fwd(m, boundary)
    facing_block = None
    if gap == 0:
        # no left candidates and nothing follows v inside its own span:
        # every other vertex faces v (star-leaf shape)
        if m != v or lv is not None:
            raise ConstructionError("blocks wrapped onto themselves", vertex=v)
        if n > 1:
            facing_block = RingInterval(ctx.succ(v), ctx.pred(v))
    elif gap > 1:
        facing_block = RingInterval(ctx.succ(m), ctx.pred(boundary))
    frame = VertexFrame(
        v=v,
        left_vertex=lv,
        middle_vertex=m,
        right_block=right_block,
        facing_block=facing_block,
        left_block=left_block,
    )
    _check_partition(frame, ctx)
    return frame


def _check_partition(frame: VertexFrame, ctx: LabelingContext) -> None:
    """Blocks must tile the order minus v; right block all adjacent,
    facing block non-adjacent except dominating members."""
    total = 1
    for block in (frame.right_block, frame.facing_block, frame.left_block):
        if block is not None:
            total += ctx.block_length(block)
    if total != ctx.n:
        raise ConstructionError("blocks do not partition the order",
                                vertex=frame.v)
    adj = ctx.graph.adj[frame.v]
    if frame.right_block is not None:
        if not adj[ctx.block_vertices(frame.right_block)].all():
            raise ConstructionError("right block holds a non-neighbor",
                                    vertex=frame.v)
    if frame.facing_block is not None:
        members = ctx.block_vertices(frame.facing_block)
        if (adj[members] & ~ctx.dominating[members]).any():
            raise ConstructionError(
                "facing block holds a non-dominating neighbor", vertex=frame.v
            )


# ---------------------------------------------------------------------------
# Assignment planning.  A plan entry is (target, start position, length):
# the ring-interval of `length` vertices starting at order position `start`
# is assigned to arc (v, target).
# ---------------------------------------------------------------------------

Plan = list[tuple[int, int, int]]


def _plan_right(frame: VertexFrame, ctx: LabelingContext):
    """Singleton for every right-block vertex (all adjacent)."""
    if frame.right_block is None:
        return None
    targets = ctx.block_vertices(frame.right_block)
    starts = ctx.pos[targets]
    lengths = np.ones(len(targets), dtype=np.int64)
    return targets, starts, lengths


def _plan_left(frame: VertexFrame, ctx: LabelingContext):
    """Split the left block at its v-adjacent members.

    Each adjacent member carries itself plus the non-adjacent vertices up
    to the next adjacent one; those sit one hop behind their carrier.
    """
    if frame.left_block is None:
        return None
    v = frame.v
    members = ctx.block_vertices(frame.left_block)
    targets = members[ctx.graph.adj[v][members]]
    if len(targets) == 0 or int(targets[0]) != frame.left_vertex:
        raise ConstructionError("left block must start at the left vertex",
                                vertex=v)
    starts = ctx.pos[targets]
    offsets = (starts - starts[0]) % ctx.n  # increasing along the block
    lengths = np.diff(np.append(offsets, ctx.fwd(int(targets[0]), v)))
    return targets, starts, lengths


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
    if frame.facing_block is None:
        return []
    members = ctx.block_vertices(frame.facing_block)
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
    block = frame.facing_block
    d_head, d_tail = ctx.dominating_run()
    if not (ctx.block_contains(block, d_head)
            and ctx.block_contains(block, d_tail)):
        raise ConstructionError(
            "dominating run straddles the facing block boundary", vertex=v
        )
    run = ctx.block_vertices(RingInterval(d_head, d_tail)).tolist()
    plan: Plan = [(d, int(ctx.pos[d]), 1) for d in run]
    plan[0] = (d_head, int(ctx.pos[block.a]), ctx.fwd(block.a, d_head) + 1)
    t, s, ln = plan[-1]
    plan[-1] = (t, s, ln + ctx.fwd(d_tail, block.b))
    return plan


def _facing_via_shared_neighbor(frame: VertexFrame, ctx: LabelingContext,
                                members: np.ndarray) -> Plan:
    """A counter partner of v or a dominating vertex is adjacent to every
    facing vertex and to v; give it the whole block."""
    v = frame.v
    candidates = set(np.flatnonzero(ctx.dominating).tolist())
    candidates.update(int(w) for w in np.flatnonzero(ctx.counter[v]))
    if not candidates:
        raise ConstructionError("no carrier for the facing block", vertex=v)
    m = frame.middle_vertex
    u = m if m in candidates else min(candidates)
    block = frame.facing_block
    if ctx.block_contains(block, u):
        raise ConstructionError("carrier lies inside the facing block", vertex=v)
    if not ctx.graph.adj[u][members].all():
        raise ConstructionError("carrier misses part of the facing block",
                                vertex=v)
    return [(u, int(ctx.pos[block.a]), ctx.block_length(block))]


def _facing_near_counter_pair(frame: VertexFrame, ctx: LabelingContext,
                              members: np.ndarray) -> Plan:
    """No dominating vertices, v itself has no counter partner, but some
    counter pair exists; v is adjacent to at least one of its members.
    A counter pair's runs cross every clique boundary, so there is no cut."""
    v = frame.v
    block = frame.facing_block
    w0, c0 = ctx.first_counter_pair
    adj = ctx.graph.adj
    a0, a1 = bool(adj[v, w0]), bool(adj[v, c0])
    if not (a0 or a1):
        raise ConstructionError(
            "vertex sees neither member of the counter pair", vertex=v
        )
    if a0 and a1:
        for u in (w0, c0):
            if adj[u][members].all():
                return [(u, int(ctx.pos[block.a]), ctx.block_length(block))]
        raise ConstructionError(
            "neither counter member covers the facing block", vertex=v
        )
    r = ctx.right_vertex_of(v)
    # the right vertex carries the part of the block inside its right block
    length = ctx.block_length(block)
    count = min(ctx.fwd(block.a, ctx.middle_vertex_of(r)) + 1, length)
    if count < length and frame.left_vertex is None:
        raise ConstructionError("left vertex missing near a counter pair",
                                vertex=v)
    return _split_facing(frame, ctx, r, count)


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
    block = frame.facing_block
    r = right_vertex(frame, ctx)
    if not ctx.has_cut:
        s = separator(frame, ctx)
        count = ctx.fwd(block.a, s) + 1 if ctx.block_contains(block, s) else 0
    elif lv is None:
        if head != v:
            raise ConstructionError(
                "vertex without a left vertex is not the cut head", vertex=v)
        count = ctx.block_length(block)
    elif head != lv and not ctx.block_contains(block, head):
        raise ConstructionError(
            "cut head is neither in the facing block nor the left vertex", vertex=v)
    elif ctx.cycle.left[r] == ctx.cycle.left[lv]:
        count = ctx.block_length(block)
    else:
        count = ctx.fwd(block.a, head)
    return _split_facing(frame, ctx, r, count)


def _split_facing(frame: VertexFrame, ctx: LabelingContext, r: int,
                  count: int) -> Plan:
    """The first ``count`` facing vertices route via ``r``, the rest via
    the left vertex."""
    block = frame.facing_block
    a = int(ctx.pos[block.a])
    length = ctx.block_length(block)
    plan: Plan = []
    if count > 0:
        plan.append((r, a, count))
    if count < length:
        plan.append((frame.left_vertex, (a + count) % ctx.n, length - count))
    return plan


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
    li = ctx.left_vertex_of(v)
    if li is None:
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
        nl = ctx.left_vertex_of(li)
        if nl is None:
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
    if frame.facing_block is not None:
        if ctx.fwd(frame.facing_block.a, w) > ctx.fwd(frame.facing_block.a, lv):
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
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.length = np.asarray(length, dtype=np.int64)
        # forwarding-table construction bisects on the source column
        key = self.src * len(order.items) + self.dst
        if len(key) > 1 and (np.diff(key) < 0).any():
            idx = np.argsort(key, kind="stable")
            self.src = self.src[idx]
            self.dst = self.dst[idx]
            self.start = self.start[idx]
            self.length = self.length[idx]
        # the verifier's forwarding tables: graph -> source -> table
        self._route_tables: dict[Graph, dict[int, np.ndarray]] = {}

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


class _Accumulator:
    """Bulk collector of plan entries as column arrays."""

    def __init__(self):
        self.srcs: list[np.ndarray] = []
        self.dsts: list[np.ndarray] = []
        self.starts: list[np.ndarray] = []
        self.lengths: list[np.ndarray] = []

    def add_bulk(self, v: int, targets, starts, lengths) -> None:
        self.srcs.append(np.full(len(targets), v, dtype=np.int64))
        self.dsts.append(np.asarray(targets, dtype=np.int64))
        self.starts.append(np.asarray(starts, dtype=np.int64))
        self.lengths.append(np.asarray(lengths, dtype=np.int64))

    def concat(self):
        if not self.srcs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy(), empty.copy()
        return (np.concatenate(self.srcs), np.concatenate(self.dsts),
                np.concatenate(self.starts), np.concatenate(self.lengths))


def _label_vertex(v: int, ctx: LabelingContext, acc: _Accumulator) -> None:
    """Plan all three blocks of v, merging facing-block extras into the
    base interval their target already carries."""
    frame = compute_frame(ctx, v)
    extras = _plan_facing(frame, ctx)
    n = ctx.n

    merged: dict[int, tuple[int, int]] = {}
    for t, s, ln in extras:
        if t in merged:
            joined = _join_chunks(n, merged[t], (s, ln))
            if joined is None:
                raise ConstructionError("conflicting facing assignments",
                                        vertex=v)
            merged[t] = joined
        else:
            merged[t] = (s, ln)

    plan_r = _plan_right(frame, ctx)
    plan_l = _plan_left(frame, ctx)
    for plan in (plan_r, plan_l):
        if plan is None:
            continue
        targets, starts, lengths = plan
        if merged:
            hit = np.isin(targets, np.fromiter(merged, dtype=np.int64,
                                               count=len(merged)))
            if hit.any():
                for t, s, ln in zip(targets[hit], starts[hit], lengths[hit]):
                    t = int(t)
                    joined = _join_chunks(n, (int(s), int(ln)), merged[t])
                    if joined is not None:
                        merged[t] = joined
                    else:
                        acc.add_bulk(v, [t], [int(s)], [int(ln)])
                targets = targets[~hit]
                starts = starts[~hit]
                lengths = lengths[~hit]
        if len(targets):
            acc.add_bulk(v, targets, starts, lengths)
    if merged:
        ts = list(merged)
        acc.add_bulk(v, ts, [merged[t][0] for t in ts],
                     [merged[t][1] for t in ts])


def _join_chunks(n: int, left: tuple[int, int],
                 right: tuple[int, int]) -> tuple[int, int] | None:
    s1, l1 = left
    s2, l2 = right
    if (s1 + l1) % n == s2 % n:
        return (s1 % n, l1 + l2)
    if (s2 + l2) % n == s1 % n:
        return (s2 % n, l1 + l2)
    return None


def build_scheme(model: ArcModel) -> RoutingScheme:
    """Full pipeline from arc model to checked routing scheme.

    Raises NotRealCircularArc (from ``build_clique_cycle``) when the arcs
    leave part of the circle uncovered.
    """
    graph = intersection_graph(model)
    cycle = build_clique_cycle(model, graph)
    vorder = build_vertex_order(cycle)
    ctx = LabelingContext(cycle, graph, vorder)
    acc = _Accumulator()
    n = model.n
    all_pos = np.arange(n, dtype=np.int64)
    for v in range(n):
        if ctx.dominating[v]:
            pos_v = int(ctx.pos[v])
            starts = np.concatenate([all_pos[:pos_v], all_pos[pos_v + 1:]])
            targets = ctx.items[starts]
            acc.add_bulk(v, targets, starts, np.ones(n - 1, dtype=np.int64))
        else:
            _label_vertex(v, ctx, acc)
    src, dst, start, length = acc.concat()
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
