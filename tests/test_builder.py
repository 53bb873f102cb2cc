import hashlib
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from arcroute import (
    RoutingScheme,
    all_pairs_distances,
    build_clique_cycle,
    build_scheme,
    build_vertex_order,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    intersection_graph,
    is_real,
    validate_model,
    verify_scheme,
)
from arcroute.builder import (
    LabelingContext,
    VertexOrder,
    _join_runs,
    _plan_facings,
    _reject_first,
    _separators,
    _walk_chains,
)
import arcroute.arc_model
import arcroute.builder
import arcroute.ring_order
from arcroute.errors import ConstructionError, NotRealCircularArc
from arcroute.ring_order import CyclicOrder
from arcroute.verifier import route_lengths
from conftest import (
    C4_MODEL,
    COUNTER_MODEL,
    NO_SEARCHES,
    block,
    check_frame_guarantees,
    context_for,
    covering_models,
    covers_gap,
    facing_case,
    labels_of,
    load,
    perturbed_ring,
    ref_first_vertices,
    ref_from_json,
    ref_ring_sequence,
    ref_to_json,
    reference_counter_matrix,
    reference_join_runs,
    same_scheme,
    src_env,
)


# -- public surface ------------------------------------------------------------


PUBLIC_NAMES = {
    "ArcModel", "ArcRouteError", "CliqueCycle", "ConstructionError", "CyclicOrder",
    "Graph", "IntervalStats", "ModelFormatError", "NotRealCircularArc",
    "OracleResult", "RingInterval", "RoutingScheme", "StructuralSchemeError",
    "VerificationReport", "VertexOrder", "all_pairs_distances",
    "build_clique_cycle", "build_scheme", "build_vertex_order", "gen_complete",
    "gen_perturbed_ring", "gen_random", "gen_ring", "gen_wheel",
    "has_shortest_path_1irs", "intersection_graph", "interval_stats", "is_real",
    "parse_model", "route", "validate_model", "verify_scheme",
}


def test_public_surface_is_the_pipeline():
    import arcroute
    import arcroute.builder

    assert set(arcroute.__all__) == PUBLIC_NAMES
    assert len(arcroute.__all__) == len(PUBLIC_NAMES)
    for name in arcroute.__all__:
        assert getattr(arcroute, name) is not None, name
    # the single-vertex readers are gone; the context's arrays hold frames
    for name in ("VertexFrame", "compute_frame", "right_vertex", "apex_number",
                 "separator"):
        assert not hasattr(arcroute, name), name
        assert not hasattr(arcroute.builder, name), name


# -- positions in a context's vertex order -------------------------------------


def fwd(ctx, a, b):
    """Clockwise steps from vertex a to vertex b in the order."""
    return int((ctx.pos[b] - ctx.pos[a]) % ctx.n)


def vertex_at(ctx, position):
    return int(ctx.items[position % ctx.n])


def succ(ctx, v):
    return vertex_at(ctx, ctx.pos[v] + 1)


def pred(ctx, v):
    return vertex_at(ctx, ctx.pos[v] - 1)


# -- vertex order ------------------------------------------------------------


def test_c4_vertex_order():
    ctx = context_for(load(C4_MODEL))
    assert ctx.vorder.order.items.tolist() == [0, 1, 2, 3]


def test_complete_graph_order_is_by_id():
    # every vertex is all-adjacent; they all close one block, by id
    ctx = context_for(gen_complete(4))
    assert ctx.vorder.order.items.tolist() == [0, 1, 2, 3]


def test_blocks_are_contiguous_and_sorted_by_reach():
    for n, seed in [(10, 3), (16, 7), (24, 11)]:
        model = gen_random(n, seed)
        ctx = context_for(model)
        cycle = ctx.cycle
        items = ctx.items.tolist()
        # an all-adjacent vertex counts as starting at clique 1 and running
        # around the whole cycle
        start = np.where(ctx.dominating, 1 % cycle.k, cycle.left)
        span = np.where(ctx.dominating, cycle.k, cycle.span_len)
        # same starting clique => consecutive, with shorter spans first
        for i in range(n):
            v, w = items[i], items[(i + 1) % n]
            if start[v] == start[w]:
                assert (span[v], v) < (span[w], w)
        starts = [int(start[v]) for v in items]
        # blocks appear in ascending clique order (the emit order) and
        # no starting clique recurs after its block ended
        distinct = [c for i, c in enumerate(starts) if i == 0 or starts[i - 1] != c]
        assert distinct == sorted(distinct)
        assert len(distinct) == len(set(distinct))


def test_block_tail_links_to_next_head():
    for n, seed in [(12, 0), (18, 5)]:
        ctx = context_for(gen_random(n, seed))
        head, tail = ctx.vorder.head, ctx.vorder.tail
        nonempty = [c for c in range(ctx.cycle.k) if head[c] != -1]
        for a, b in zip(nonempty, nonempty[1:] + nonempty[:1]):
            assert succ(ctx, int(tail[a])) == int(head[b])


def test_wheel_hub_sits_in_its_pinned_block():
    # the all-adjacent hub is placed at the end of the block of clique 1
    model = gen_wheel(6)
    ctx = context_for(model)
    hub = 6
    assert int(ctx.vorder.tail[1]) == hub
    block_head = int(ctx.vorder.head[1])
    assert fwd(ctx, block_head, hub) < ctx.n


def dominating_placement_models():
    models = [gen_wheel(k) for k in range(3, 20)]
    models += [gen_complete(n) for n in range(2, 12)]
    for n in (5, 8, 12, 20, 40):
        for seed in range(20):
            model = gen_random(n, seed)
            if (intersection_graph(model).degrees == n - 1).any():
                models.append(model)
    return models


def test_all_adjacent_vertices_close_the_block_of_clique_1():
    checked = 0
    for model in dominating_placement_models():
        ctx = context_for(model)
        cycle = ctx.cycle
        c = 1 % cycle.k
        doms = np.flatnonzero(ctx.dominating).tolist()
        assert doms
        others = sorted((v for v in range(model.n)
                         if not ctx.dominating[v] and cycle.left[v] == c),
                        key=lambda v: (int(cycle.span_len[v]), v))
        head = int(ctx.vorder.head[c])
        block = [vertex_at(ctx, ctx.pos[head] + i)
                 for i in range(len(others) + len(doms))]
        assert block == others + doms
        assert int(ctx.vorder.tail[c]) == doms[-1]
        # the facing-block planner takes the first and the last dominating
        # id as the ends of one run in the order
        assert (ctx.pos[doms] == ctx.pos[doms[0]] + np.arange(len(doms))).all()
        checked += 1
    assert checked >= 60


# -- frames ------------------------------------------------------------------


def test_c4_frame_of_vertex_0():
    ctx = context_for(load(C4_MODEL))
    assert ctx.left_of[0] == 3
    assert ctx.middle_of[0] == 1
    assert (ctx.lo[0], ctx.hi[0]) == (2, 3)
    assert block(ctx, 0, 1, ctx.lo[0]).tolist() == [1]
    assert block(ctx, 0, ctx.lo[0], ctx.hi[0]).tolist() == [2]
    assert block(ctx, 0, ctx.hi[0], ctx.n).tolist() == [3]


def test_ring_frames_have_unit_side_blocks():
    for k in (5, 8, 13):
        model = gen_ring(k)
        ctx = context_for(model)
        for v in range(k):
            lo, hi = ctx.lo[v], ctx.hi[v]
            assert (lo, hi) == (2, k - 1)
            assert block(ctx, v, 1, lo).tolist() == [(v + 1) % k]
            assert block(ctx, v, hi, k).tolist() == [(v - 1) % k]
            assert len(block(ctx, v, lo, hi)) == k - 3


def test_dominating_vertex_has_no_frame():
    # the hub of W6 has no distinguished neighbors and one right block of
    # everything
    ctx = context_for(gen_wheel(6))
    assert (ctx.left_of[6], ctx.middle_of[6], ctx.right_of[6]) == (-1, -1, -1)
    assert (ctx.lo[6], ctx.hi[6]) == (ctx.n, ctx.n)


def test_empty_right_block_when_vertex_closes_its_clique():
    # seed chosen so some vertex is the farthest-reaching one of its
    # right clique's block
    model = gen_random(30, 6)
    ctx = context_for(model)
    found = False
    for v in range(30):
        if ctx.dominating[v]:
            continue
        if ctx.middle_of[v] == v:
            assert ctx.lo[v] == 1
            assert len(block(ctx, v, 1, ctx.lo[v])) == 0
            found = True
    assert found


def test_frames_partition_the_order():
    for n, seed in [(12, 1), (20, 9), (30, 17)]:
        model = gen_random(n, seed)
        ctx = context_for(model)
        for v in range(n):
            if ctx.dominating[v]:
                continue
            lo, hi = int(ctx.lo[v]), int(ctx.hi[v])
            assert 1 <= lo <= hi <= n
            seen = {v}
            for a, b in [(1, lo), (lo, hi), (hi, n)]:
                members = {int(x) for x in block(ctx, v, a, b)}
                assert len(members) == b - a
                assert not (members & seen)
                seen |= members
            assert seen == set(range(n))
            if lo > 1:
                assert block(ctx, v, lo - 1, lo)[0] == ctx.middle_of[v]
            if ctx.left_of[v] == -1:
                assert hi == n
            else:
                assert block(ctx, v, hi, hi + 1)[0] == ctx.left_of[v]


def test_left_vertex_bounds_all_candidates():
    # every candidate sits between the left vertex and v in the order
    for n, seed in [(12, 2), (20, 4)]:
        model = gen_random(n, seed)
        ctx = context_for(model)
        cycle, graph = ctx.cycle, ctx.graph
        counter = reference_counter_matrix(cycle, graph)
        for v in range(n):
            if ctx.dominating[v]:
                continue
            lv = int(ctx.left_of[v])
            if lv == -1:
                continue
            span = fwd(ctx, lv, v)
            for u in np.flatnonzero(ctx.adj[v]):
                u = int(u)
                further_left = (
                    (cycle.left[v] - cycle.left[u]) % cycle.k < cycle.span_len[u]
                    and cycle.left[u] != cycle.left[v]
                    and not ctx.dominating[u]
                    and not counter[v, u]
                )
                if further_left:
                    assert fwd(ctx, lv, u) <= span


@pytest.mark.parametrize("model,swap,head,message,vertex", [
    # C4's order is 0..3 with one block per clique; vertex v spans cliques
    # v and v + 1, and W5's order is 0 1 5 2 3 4 with the hub 5 dominating
    (load(C4_MODEL), None, {0: -1, 1: -1}, "no block found inside own span", 0),
    (load(C4_MODEL), (0, 1), {}, "blocks wrapped onto themselves", 0),
    (gen_wheel(5), (2, 3), {}, "right block holds a non-neighbor", 0),
    (gen_wheel(5), (1, 2), {}, "facing block holds a non-dominating neighbor", 0),
    (load(C4_MODEL), None, {0: 2}, "left block must start at the left vertex", 0),
], ids=["no_block_in_span", "wrapped", "right_non_neighbor", "facing_neighbor",
        "left_start"])
def test_frame_checks_name_the_first_offending_vertex(model, swap, head, message,
                                                      vertex):
    # a doctored vertex order: two positions swapped, or block heads (and
    # the tails of emptied blocks) overwritten
    cycle = build_clique_cycle(model)
    vorder = build_vertex_order(cycle)
    LabelingContext(cycle, vorder)
    items = vorder.order.items.tolist()
    if swap:
        i, j = swap
        items[i], items[j] = items[j], items[i]
    heads, tails = vorder.head.copy(), vorder.tail.copy()
    for c, h in head.items():
        heads[c] = h
        if h == -1:
            tails[c] = -1
    doctored = VertexOrder(CyclicOrder(items), heads, tails)
    with pytest.raises(ConstructionError, match=message) as info:
        LabelingContext(cycle, doctored)
    assert info.value.vertex == vertex


# -- per-vertex references -----------------------------------------------------
# The context computes every frame and side run in one pass over the edges;
# these are the per-vertex definitions that pass replaced.


def ref_middle_vertex(ctx, v):
    """Tail of the last nonempty block at or before v's right clique."""
    cycle = ctx.cycle
    c = int(cycle.right[v])
    while ctx.vorder.head[c] == -1:
        c = (c - 1) % cycle.k
    if (c - cycle.left[v]) % cycle.k >= cycle.span_len[v]:
        raise ConstructionError("no block found inside own span", vertex=v)
    return int(ctx.vorder.tail[c])


def ref_left_vertex(ctx, v):
    """The candidate neighbor farthest behind v in the order, or the head
    of v's block when that lies further behind; -1 when neither lies
    behind v.  Candidates reach strictly further counterclockwise than v
    and are neither dominating nor counter partners of v."""
    cycle = ctx.cycle
    k = cycle.k
    lc = int(cycle.left[v])
    counter = reference_counter_matrix(cycle, ctx.graph)
    best, best_dist = -1, 0
    for u in np.flatnonzero(ctx.adj[v]).tolist():
        if ((lc - cycle.left[u]) % k < cycle.span_len[u] and cycle.left[u] != lc
                and not ctx.dominating[u] and not counter[v, u]
                and fwd(ctx, u, v) > best_dist):
            best, best_dist = u, fwd(ctx, u, v)
    h = int(ctx.vorder.head[lc])
    if h != v and fwd(ctx, h, v) > best_dist:
        best = h
    return best


def ref_right_vertex(ctx, v):
    """Neighbor reaching farthest clockwise from v's right clique; prefers
    the left vertex, then the middle vertex, then the one soonest after v."""
    cycle = ctx.cycle
    k = cycle.k
    rc = int(cycle.right[v])
    reach = {u: int((cycle.right[u] - rc) % k)
             for u in np.flatnonzero(ctx.adj[v]).tolist()
             if (rc - cycle.left[u]) % k < cycle.span_len[u]}
    if not reach:
        raise ConstructionError("no neighbor shares the right clique", vertex=v)
    best_set = {u for u, r in reach.items() if r == max(reach.values())}
    lv = ref_left_vertex(ctx, v)
    if lv in best_set:
        return lv
    m = ref_middle_vertex(ctx, v)
    if m != v and m in best_set:
        return m
    return min(best_set, key=lambda u: fwd(ctx, v, u))


def ref_plan_right(ctx, v):
    """Singleton (target, offset, length) for every right-block vertex."""
    return [(int(w), a, 1) for a, w in enumerate(block(ctx, v, 1, ctx.lo[v]), 1)]


def ref_plan_left(ctx, v):
    """Split the left block at its v-adjacent members: each carries itself
    plus the non-adjacent vertices up to the next adjacent one."""
    hi = int(ctx.hi[v])
    members = block(ctx, v, hi, ctx.n)
    adjacent = ctx.adj[v][members]
    if len(members) and not adjacent[0]:
        raise ConstructionError("left block must start at the left vertex",
                                vertex=v)
    offsets = (hi + np.flatnonzero(adjacent)).tolist()
    return [(vertex_at(ctx, ctx.pos[v] + a), a, b - a)
            for a, b in zip(offsets, offsets[1:] + [ctx.n])]


# The facing blocks are planned for all vertices at once; these are the
# per-vertex planners, chain walk and separator scan that bulk pass replaced.
# A plan is a list of (target, offset, length) runs of one vertex.


def ref_right_vertex_of(ctx, v):
    if ctx.right_of[v] == -1:
        raise ConstructionError("no neighbor shares the right clique", vertex=v)
    return int(ctx.right_of[v])


def ref_faces(ctx, v, w):
    return ctx.lo[v] <= fwd(ctx, v, w) < ctx.hi[v]


def ref_plan_facing(ctx, v):
    if ctx.lo[v] == ctx.hi[v]:
        return []
    members = block(ctx, v, ctx.lo[v], ctx.hi[v])
    if ctx.dominating[members].any():
        return ref_facing_via_dominating_members(ctx, v)
    if ctx.has_counter[v] or ctx.any_dominating:
        return ref_facing_via_shared_neighbor(ctx, v, members)
    if ctx.any_counter_pair:
        return ref_facing_near_counter_pair(ctx, v, members)
    return ref_facing_via_separator(ctx, v)


def ref_facing_via_dominating_members(ctx, v):
    doms = np.flatnonzero(ctx.dominating)
    d_head, d_tail = int(doms[0]), int(doms[-1])
    if not (ref_faces(ctx, v, d_head) and ref_faces(ctx, v, d_tail)):
        raise ConstructionError(
            "dominating run straddles the facing block boundary", vertex=v
        )
    first, last = fwd(ctx, v, d_head), fwd(ctx, v, d_tail)
    bounds = [int(ctx.lo[v]), *range(first + 1, last + 1), int(ctx.hi[v])]
    doms = block(ctx, v, first, last + 1).tolist()
    return [(d, a, b - a) for d, a, b in zip(doms, bounds, bounds[1:])]


def ref_facing_via_shared_neighbor(ctx, v, members):
    m = int(ctx.middle_of[v])
    carriers = ctx.dominating | reference_counter_matrix(ctx.cycle, ctx.graph)[v]
    if not carriers.any():
        raise ConstructionError("no carrier for the facing block", vertex=v)
    u = m if carriers[m] else int(np.argmax(carriers))
    if ref_faces(ctx, v, u):
        raise ConstructionError("carrier lies inside the facing block", vertex=v)
    if not ctx.adj[u][members].all():
        raise ConstructionError("carrier misses part of the facing block",
                                vertex=v)
    return [(u, int(ctx.lo[v]), int(ctx.hi[v] - ctx.lo[v]))]


def ref_facing_near_counter_pair(ctx, v, members):
    adj = ctx.adj
    w0, c0 = sorted(np.argwhere(reference_counter_matrix(ctx.cycle, ctx.graph))[0]
                    .tolist())
    a0, a1 = bool(adj[v, w0]), bool(adj[v, c0])
    if not (a0 or a1):
        raise ConstructionError(
            "vertex sees neither member of the counter pair", vertex=v
        )
    length = int(ctx.hi[v] - ctx.lo[v])
    if a0 and a1:
        for u in (w0, c0):
            if adj[u][members].all():
                return [(u, int(ctx.lo[v]), length)]
        raise ConstructionError(
            "neither counter member covers the facing block", vertex=v
        )
    r = ref_right_vertex_of(ctx, v)
    reach = (fwd(ctx, v, int(ctx.middle_of[r])) - ctx.lo[v]) % ctx.n + 1
    count = min(reach, length)
    if count < length and ctx.left_of[v] == -1:
        raise ConstructionError("left vertex missing near a counter pair",
                                vertex=v)
    return ref_split_facing(ctx, v, r, count)


def ref_facing_via_separator(ctx, v):
    lv, head = int(ctx.left_of[v]), ctx.cut_head
    lo, hi = int(ctx.lo[v]), int(ctx.hi[v])
    r = ref_right_vertex_of(ctx, v)
    if not ctx.has_cut:
        s = ref_separator(ctx, v)
        count = fwd(ctx, v, s) - lo + 1 if ref_faces(ctx, v, s) else 0
    elif lv == -1:
        if head != v:
            raise ConstructionError(
                "vertex without a left vertex is not the cut head", vertex=v)
        count = hi - lo
    elif head != lv and not ref_faces(ctx, v, head):
        raise ConstructionError(
            "cut head is neither in the facing block nor the left vertex", vertex=v)
    elif ctx.cycle.left[r] == ctx.cycle.left[lv]:
        count = hi - lo
    else:
        count = fwd(ctx, v, head) - lo
    return ref_split_facing(ctx, v, r, count)


def ref_split_facing(ctx, v, r, count):
    lo, hi = int(ctx.lo[v]), int(ctx.hi[v])
    plan = [(r, lo, count), (int(ctx.left_of[v]), lo + count, hi - lo - count)]
    return [run for run in plan if run[2] > 0]


def ref_walk_chains(ctx, v):
    """Apex number of v, with the left and right iterates one step before
    the chains meet (the first ones when the apex number is 1)."""
    if ctx.any_dominating or ctx.any_counter_pair:
        raise ConstructionError("apex undefined with dominating or counter vertices")
    li = int(ctx.left_of[v])
    if li == -1:
        raise ConstructionError("left vertex missing", vertex=v)
    ri = ref_right_vertex_of(ctx, v)
    cycle = ctx.cycle
    k = cycle.k
    lc_l1 = int(cycle.left[li])
    rc_r1 = int(cycle.right[ri])
    if lc_l1 == rc_r1 or ref_interval_proper_subset(
        k, int(cycle.left[v]), int(cycle.span_len[v]),
        rc_r1, (lc_l1 - rc_r1) % k + 1,
    ):
        return 1, li, ri
    for i in range(2, ctx.n + 2):
        nl = int(ctx.left_of[li])
        if nl == -1:
            raise ConstructionError("left chain broke", vertex=v)
        nr = ref_right_vertex_of(ctx, ri)
        if nl == nr or ctx.adj[nl, nr]:
            return i, li, ri
        li, ri = nl, nr
    raise ConstructionError("left/right chains never met", vertex=v)


def ref_bulk_walk_chains(ctx, vs):
    """``_walk_chains`` as it stepped all chains together, one depth at a
    time, before the walk took pointer-doubling jumps."""
    if ctx.any_dominating or ctx.any_counter_pair:
        raise ConstructionError("apex undefined with dominating or counter vertices")
    cycle, k = ctx.cycle, ctx.cycle.k
    li, ri = ctx.left_of[vs], ctx.right_of[vs]
    _reject_first(li == -1, "left vertex missing", vs)
    _reject_first(ri == -1, "no neighbor shares the right clique", vs)
    lc_l1, rc_r1 = cycle.left[li], cycle.right[ri]
    alen, blen = cycle.span_len[vs], (lc_l1 - rc_r1) % k + 1
    inside = (alen < blen) & ((blen >= k)
                              | ((cycle.left[vs] - rc_r1) % k + alen <= blen))
    apex = np.where((lc_l1 == rc_r1) | inside, 1, 0)
    walking = np.flatnonzero(apex == 0)
    for depth in range(2, ctx.n + 2):
        if len(walking) == 0:
            break
        nl = ctx.left_of[li[walking]]
        _reject_first(nl == -1, "left chain broke", vs[walking])
        nr = ctx.right_of[ri[walking]]
        _reject_first(nr == -1, "no neighbor shares the right clique", ri[walking])
        met = (nl == nr) | ctx.adj[nl, nr]
        apex[walking[met]] = depth
        walking, nl, nr = walking[~met], nl[~met], nr[~met]
        li[walking], ri[walking] = nl, nr
    _reject_first(apex == 0, "left/right chains never met", vs)
    return apex, li, ri


def ref_interval_proper_subset(k, a, alen, b, blen):
    """Is the clique interval (a, alen) strictly inside (b, blen)?"""
    if alen >= blen:
        return False
    if blen >= k:
        return True
    return (a - b) % k + alen <= blen


def ref_separator(ctx, v):
    """Scan the order from after the right iterate's last block for the
    first vertex that is the left iterate or adjacent to it."""
    apex, li, ri = ref_walk_chains(ctx, v)
    lv = int(ctx.left_of[v])
    if apex == 1:
        return pred(ctx, lv)
    c = int(ctx.cycle.right[ri])
    tail = int(ctx.vorder.tail[c])
    if tail == -1:
        raise ConstructionError("empty block at the right chain's last clique",
                                vertex=v)
    w = succ(ctx, tail)
    for _ in range(fwd(ctx, w, lv) + 1):
        if w == li or ctx.adj[w, li]:
            break
        w = succ(ctx, w)
    else:
        raise ConstructionError("separator scan exhausted the facing block",
                                vertex=v)
    if ctx.lo[v] < ctx.hi[v] and not ctx.lo[v] <= fwd(ctx, v, w) <= ctx.hi[v]:
        raise ConstructionError("separator landed outside the facing block",
                                vertex=v)
    return pred(ctx, w)


def endpoint_permutations(count, seed):
    """``count`` covering models of 2 to 10 arcs, from shuffled endpoints."""
    rng, models = random.Random(seed), []
    while len(models) < count:
        n = rng.randint(2, 10)
        ends = list(range(2 * n))
        rng.shuffle(ends)
        model = validate_model(n, list(zip(ends[::2], ends[1::2])))
        if is_real(model):
            models.append(model)
    return models


def frame_corpus():
    """Dominating vertices, counter pairs, cut models, separator-case rings
    and perturbed rings, small random models, and 1,000 covering random
    endpoint permutations."""
    models = dominating_placement_models()
    models += [load(COUNTER_MODEL), gen_random(6, 546), gen_random(5, 101),
               gen_random(8, 22)]
    models += [gen_ring(k) for k in range(3, 41)]
    models += [perturbed_ring(n, seed) for n in (8, 16, 40) for seed in range(5)]
    models += [gen_random(n, seed) for n in range(4, 13) for seed in range(40)]
    return models + endpoint_permutations(1000, 3)


def test_frame_arrays_and_side_runs_match_the_per_vertex_references():
    cases = Counter()
    for model in frame_corpus():
        ctx = context_for(model)
        n = model.n
        for v in range(n):
            runs = side_rows(ctx, v, 1, n)
            if ctx.dominating[v]:
                assert (ctx.middle_of[v], ctx.left_of[v]) == (-1, -1)
                assert (ctx.lo[v], ctx.hi[v]) == (n, n)
                assert runs == [(vertex_at(ctx, ctx.pos[v] + a), a, 1)
                                for a in range(1, n)]
                continue
            m, lv = ref_middle_vertex(ctx, v), ref_left_vertex(ctx, v)
            assert (ctx.middle_of[v], ctx.left_of[v]) == (m, lv), (model, v)
            assert ctx.lo[v] == fwd(ctx, v, m) + 1, (model, v)
            assert ctx.hi[v] == (n if lv == -1 else fwd(ctx, v, lv)), (model, v)
            assert runs == ref_plan_right(ctx, v) + ref_plan_left(ctx, v)
            if not ctx.any_dominating:
                assert ctx.right_of[v] == ref_right_vertex(ctx, v), (model, v)
            if ctx.lo[v] < ctx.hi[v]:
                cases[facing_case(ctx, v)] += 1
    assert min(cases[case] for case in ("dominating members", "shared neighbor",
                                        "near counter pair", "cut",
                                        "separator")) >= 20, cases


def facing_rows(runs, v):
    """The (target, offset, length) rows of v among the (source, target,
    offset, length) columns ``runs``, by offset."""
    src, dst, offset, length = runs
    mine = src == v
    return sorted(zip(dst[mine].tolist(), offset[mine].tolist(),
                      length[mine].tolist()), key=lambda row: row[1])


def test_bulk_facing_plans_match_the_per_vertex_planners():
    cases = Counter()
    walked = 0
    for model in frame_corpus():
        ctx = context_for(model)
        plans, errors = {}, set()
        for v in np.flatnonzero(ctx.lo < ctx.hi).tolist():
            cases[facing_case(ctx, v)] += 1
            try:
                plans[v] = ref_plan_facing(ctx, v)
            except ConstructionError as exc:
                errors.add(str(exc))
        if errors:
            with pytest.raises(ConstructionError) as info:
                _plan_facings(ctx)
            assert str(info.value) in errors, model
            continue
        runs = _plan_facings(ctx)
        assert len(runs[0]) == sum(map(len, plans.values())), model
        for v, plan in plans.items():
            assert facing_rows(runs, v) == sorted(plan, key=lambda row: row[1]), (
                model, v)
        if ctx.any_dominating or ctx.any_counter_pair or ctx.has_cut:
            continue
        # all chains walked together, against one walk per vertex
        vs = np.flatnonzero((ctx.lo < ctx.hi) & (ctx.left_of != -1))
        apex, li, ri = _walk_chains(ctx, vs)
        assert list(zip(apex.tolist(), li.tolist(), ri.tolist())) == [
            ref_walk_chains(ctx, v) for v in vs.tolist()], model
        assert _separators(ctx, vs).tolist() == [
            ref_separator(ctx, v) for v in vs.tolist()], model
        walked += len(vs)
    assert min(cases[case] for case in ("dominating members", "shared neighbor",
                                        "near counter pair", "cut",
                                        "separator")) >= 20, cases
    assert walked >= 1000, walked


# -- labeling operations -------------------------------------------------------


def side_rows(ctx, v, a, b):
    """The (target, offset after v, length) side runs of v whose offsets
    lie in ``a .. b - 1``, by offset."""
    src, dst, offset, length = ctx.side_runs
    mine = (src == v) & (offset >= a) & (offset < b)
    return sorted(zip(dst[mine].tolist(), offset[mine].tolist(),
                      length[mine].tolist()), key=lambda row: row[1])


def test_label_right_assigns_singletons():
    # C4's order is 0..3
    ctx = context_for(load(C4_MODEL))
    assert side_rows(ctx, 0, 1, ctx.lo[0]) == [(1, 1, 1)]


def test_label_left_c4():
    ctx = context_for(load(C4_MODEL))
    assert side_rows(ctx, 0, ctx.hi[0], ctx.n) == [(3, 3, 1)]


def test_label_left_carries_non_adjacent_riders():
    # ring C5 from vertex 0: the left block is only the left vertex, but
    # on C6 a non-adjacent vertex rides on the left vertex's arc after
    # the facing split; exercise the pure left-block splitting on a
    # random fixture with a multi-member left block instead
    model = gen_random(20, 9)
    ctx = context_for(model)
    graph = ctx.graph
    dist_ok = 0
    for v in range(20):
        if ctx.dominating[v]:
            continue
        members = block(ctx, v, ctx.hi[v], ctx.n)
        if len(members) < 2 or ctx.adj[v][members].all():
            continue
        covered = []
        for w, offset, length in side_rows(ctx, v, ctx.hi[v], ctx.n):
            assert ctx.adj[v, w]
            stretch = block(ctx, v, offset, offset + length).tolist()
            assert len(stretch) == length
            assert stretch[0] == w
            for u in stretch:
                # carrier starts a shortest path to everything it carries
                assert w == u or w in ref_first_vertices(graph, v, u)
            covered.extend(stretch)
        assert sorted(covered) == sorted(int(x) for x in members)
        dist_ok += 1
    assert dist_ok > 0


def test_right_vertex_c4():
    ctx = context_for(load(C4_MODEL))
    assert ctx.right_of[0] == 1
    assert ctx.middle_of[0] == 1  # the right vertex is the middle one here


def test_right_vertex_prefers_left_vertex_when_it_reaches_farthest():
    found = False
    for seed in range(60):
        model = gen_random(8, seed)
        ctx = context_for(model)
        if ctx.any_dominating or ctx.any_counter_pair:
            continue
        right = ctx.right_of
        for v in range(8):
            lv = int(ctx.left_of[v])
            if lv == -1:
                continue
            cycle = ctx.cycle
            rc = int(cycle.right[v])
            k = cycle.k
            if (rc - cycle.left[lv]) % k >= cycle.span_len[lv]:
                continue
            nb = np.flatnonzero(ctx.adj[v])
            cand = nb[((rc - cycle.left[nb]) % k) < cycle.span_len[nb]]
            reach = (cycle.right[cand] - rc) % k
            if (cycle.right[lv] - rc) % k == int(reach.max()):
                assert right[v] == lv
                found = True
    assert found


def test_apex_c4():
    ctx = context_for(load(C4_MODEL))
    assert _walk_chains(ctx, np.array([0]))[0].tolist() == [2]


def test_apex_c6_chains_meet_at_depth_three():
    # on the 6-ring the depth-2 iterates (two hops out both ways) are
    # still two apart; the chains first touch at depth 3
    ctx = context_for(gen_ring(6))
    assert _walk_chains(ctx, np.array([0]))[0].tolist() == [3]


def test_apex_one_when_first_neighbors_meet_around():
    found = False
    for seed in range(80):
        model = gen_random(7, seed)
        ctx = context_for(model)
        if ctx.any_dominating or ctx.any_counter_pair:
            continue
        apex = _walk_chains(ctx, np.flatnonzero(ctx.left_of != -1))[0]
        found |= bool((apex == 1).any())
    assert found


def test_separator_c4():
    ctx = context_for(load(C4_MODEL))
    assert _separators(ctx, np.array([0])).tolist() == [2]


def test_separator_split_matches_first_vertices():
    # both sides of the split must start shortest paths, checked against
    # the BFS oracle on rings (apex machinery) and plain random fixtures
    models = [gen_ring(k) for k in (4, 5, 6, 7, 9, 12, 21, 34, 64)]
    models += [gen_random(8, 3), gen_random(5, 22)]
    for model in models:
        ctx = context_for(model)
        if ctx.any_dominating or ctx.any_counter_pair:
            continue
        graph = ctx.graph
        vs = np.flatnonzero((ctx.lo < ctx.hi) & (ctx.left_of != -1))
        for v, r, s in zip(vs.tolist(), ctx.right_of[vs].tolist(),
                           _separators(ctx, vs).tolist()):
            for w in block(ctx, v, ctx.lo[v], ctx.hi[v]).tolist():
                goes_right = fwd(ctx, v, w) <= fwd(ctx, v, s)
                carrier = r if goes_right else ctx.left_of[v]
                assert carrier in ref_first_vertices(graph, v, w), (v, w)


def two_walk_apex(ctx, v):
    """The apex number as computed when separator walked the chains again."""
    l1, r1 = int(ctx.left_of[v]), int(ctx.right_of[v])
    cycle = ctx.cycle
    k = cycle.k
    lc_l1, rc_r1 = int(cycle.left[l1]), int(cycle.right[r1])
    if lc_l1 == rc_r1 or ref_interval_proper_subset(
        k, int(cycle.left[v]), int(cycle.span_len[v]),
        rc_r1, (lc_l1 - rc_r1) % k + 1,
    ):
        return 1
    li, ri = l1, r1
    for i in range(2, ctx.n + 2):
        li = int(ctx.left_of[li])
        ri = int(ctx.right_of[ri])
        if li == ri or ctx.adj[li, ri]:
            return i
    raise AssertionError("chains never met")


def two_walk_separator(ctx, v):
    """The separator as found by walking both chains a second time, to
    depth apex - 1, before the scan."""
    apex = two_walk_apex(ctx, v)
    lv = int(ctx.left_of[v])
    if apex == 1:
        return pred(ctx, lv)
    li, ri = lv, int(ctx.right_of[v])
    for _ in range(apex - 2):
        li = int(ctx.left_of[li])
        ri = int(ctx.right_of[ri])
    w = succ(ctx, int(ctx.vorder.tail[int(ctx.cycle.right[ri])]))
    while not (w == li or ctx.adj[w, li]):
        w = succ(ctx, w)
    return pred(ctx, w)


def separator_case_models():
    """Rings 4-64, perturbed rings and the small random models that have no
    cut, dominating vertex or counter pair, each with its family name."""
    models = [("ring", gen_ring(k)) for k in range(4, 65)]
    models += [("perturbed_ring", perturbed_ring(n, seed))
               for n in (8, 16, 40, 120) for seed in range(10)]
    models += [("random", gen_random(n, seed))
               for n in range(4, 13) for seed in range(400)]
    return models


def test_one_chain_walk_matches_the_two_walk_apex_and_separator():
    models = Counter()
    apexes = Counter()
    for family, model in separator_case_models():
        ctx = context_for(model)
        if ctx.any_dominating or ctx.any_counter_pair or ctx.has_cut:
            continue
        models[family] += 1
        vs = np.flatnonzero(ctx.lo < ctx.hi)
        for v, apex, s in zip(vs.tolist(), _walk_chains(ctx, vs)[0].tolist(),
                              _separators(ctx, vs).tolist()):
            assert apex == two_walk_apex(ctx, v), (model, v)
            assert s == two_walk_separator(ctx, v), (model, v)
            apexes[min(apex, 3)] += 1
    assert models == {"ring": 61, "perturbed_ring": 38, "random": 27}
    assert min(apexes[a] for a in (1, 2, 3)) >= 20, apexes


def test_pointer_doubling_walk_matches_the_bulk_and_per_vertex_walks():
    # the benchmark's perturbed rings walk up to about n / 5 depths
    models = [model for _, model in separator_case_models()]
    models += [perturbed_ring(300, seed) for seed in range(5)]
    models += [perturbed_ring(2000, 0)]
    cases = [(model, None) for model in models]
    # vertices 2 and 3 both have apex number 1, so no chain walks at all
    cases.append((gen_random(5, 22), np.array([2, 3])))
    walked, deepest = 0, 0
    for model, vs in cases:
        ctx = context_for(model)
        if ctx.any_dominating or ctx.any_counter_pair or ctx.has_cut:
            continue
        if vs is None:
            vs = np.flatnonzero(ctx.left_of != -1)
        got = _walk_chains(ctx, vs)
        for a, b in zip(got, ref_bulk_walk_chains(ctx, vs)):
            assert a.tolist() == b.tolist(), model
        assert list(zip(*(a.tolist() for a in got))) == [
            ref_walk_chains(ctx, v) for v in vs.tolist()], model
        walked += int((got[0] > 1).sum())
        deepest = max(deepest, int(got[0].max()))
    assert walked >= 7000, walked
    assert deepest >= 300, deepest


# On ring C_k every vertex's chains meet at depth k // 2, so the rings 4-64
# put the meeting at each depth from 2 to 32, among them the depths 2^j and
# 2^j + 1 where the walk's jumps begin and end.
@pytest.mark.parametrize("k", range(4, 65), ids=[f"C{k}" for k in range(4, 65)])
def test_ring_chains_meet_halfway_round_at_every_depth(k):
    ctx = context_for(gen_ring(k))
    assert not (ctx.any_dominating or ctx.any_counter_pair or ctx.has_cut)
    assert {a.dtype for a in (ctx.left_of, ctx.middle_of, ctx.right_of)} == {
        np.dtype(np.int64)}
    check_frame_guarantees(ctx)
    vs = np.arange(k)
    half = k // 2
    got = _walk_chains(ctx, vs)
    apex, li, ri = (a.tolist() for a in got)
    assert apex == [half] * k
    assert li == ((vs - half + 1) % k).tolist()
    assert ri == ((vs + half - 1) % k).tolist()
    for a, b in zip(got, ref_bulk_walk_chains(ctx, vs)):
        assert a.tolist() == b.tolist()
    assert list(zip(apex, li, ri)) == [ref_walk_chains(ctx, v) for v in range(k)]
    assert _separators(ctx, vs).tolist() == ((vs + half) % k).tolist()


def test_face_to_face_c4_compresses_to_one_interval():
    # the facing vertex 2 rides on the right-block arc (0, 1), and the two
    # runs join into the single interval [1, 2]
    ctx = context_for(load(C4_MODEL))
    assert facing_rows(_plan_facings(ctx), 0) == [(1, 2, 1)]
    assert labels_of(build_scheme(load(C4_MODEL)))[(0, 1)] == [[1, 2]]


def test_face_to_face_noop_when_block_empty():
    ctx = context_for(gen_random(5, 22))
    assert ctx.lo[0] == ctx.hi[0]
    assert facing_rows(_plan_facings(ctx), 0) == []


# -- planner checks --------------------------------------------------------------
# Each check of the facing-block planner, the chain walk and the separator,
# reached on a context whose arrays are doctored after the frames were
# computed.  gen_random(5, 0) has order 1 2 4 0 3 with the dominating 0 and
# 3 last, inside the facing blocks of 1 and 2.  gen_random(8, 118) has the
# one counter pair (1, 6) and no dominating vertex; vertex 2 sees both
# members and has facing block 3 4 5, vertex 7 sees 6 only and splits its
# block.  C12 has order 0 .. 11; vertex 0 has facing block 2 .. 10, its
# chains meet at depth 6 with iterates 7 and 5, and its separator is 6.
# Neither the case a vertex takes nor its left and right vertices are
# doctored: ``_plan_facings``' masks alone choose the case, ``_compute_frames``
# gives every vertex the frame its case reads, and the functions they call
# check neither again (both are tested on whole model families below).


def drop_edges(ctx, *pairs):
    keys = [u * ctx.n + ctx.pos[w] for a, b in pairs for u, w in ((a, b), (b, a))]
    assert np.isin(keys, ctx.edges).all()
    ctx.edges = np.setdiff1d(ctx.edges, keys)


def set_row(ctx, name, index, value):
    array = getattr(ctx, name).copy()
    array[index] = value
    setattr(ctx, name, array)


def plan(ctx):
    return _plan_facings(ctx)


def of_vertex_0(bulk):
    return lambda ctx: bulk(ctx, np.array([0]))


PLANNER_CHECKS = [
    ("straddle", lambda: gen_random(5, 0), lambda ctx: set_row(ctx, "hi", 1, 4),
     plan, "dominating run straddles the facing block boundary", 1),
    ("carrier_inside", lambda: gen_random(8, 118),
     lambda ctx: (set_row(ctx, "partner", 1, 7), set_row(ctx, "middle_of", 1, 7)),
     plan, "carrier lies inside the facing block", 1),
    ("carrier_misses", lambda: gen_random(8, 118), lambda ctx: drop_edges(ctx, (6, 7)),
     plan, "carrier misses part of the facing block", 1),
    ("sees_neither", lambda: gen_random(8, 118),
     lambda ctx: drop_edges(ctx, (2, 1), (2, 6)),
     plan, "vertex sees neither member of the counter pair", 2),
    ("neither_covers", lambda: gen_random(8, 118),
     lambda ctx: drop_edges(ctx, (1, 4), (6, 4)),
     plan, "neither counter member covers the facing block", 2),
    # on C13 vertex 0's chains meet at depth 6, where the iterates 7 and 6
    # are adjacent; without that edge the clique gain still says they meet
    ("gained_without_meeting", lambda: gen_ring(13),
     lambda ctx: drop_edges(ctx, (6, 7)),
     of_vertex_0(_walk_chains), "chains gained the gap without meeting", 0),
    ("empty_tail", lambda: gen_ring(12), lambda ctx: ctx.vorder.tail.__setitem__(6, -1),
     of_vertex_0(_separators), "empty block at the right chain's last clique", 0),
    ("scan_exhausted", lambda: gen_ring(12),
     lambda ctx: ctx.vorder.tail.__setitem__(6, 8),
     of_vertex_0(_separators), "separator scan exhausted the facing block", 0),
    ("landed_outside", lambda: gen_ring(12), lambda ctx: set_row(ctx, "lo", 0, 8),
     of_vertex_0(_separators), "separator landed outside the facing block", 0),
]


@pytest.mark.parametrize("make,doctor,call,message,vertex",
                         [c[1:] for c in PLANNER_CHECKS],
                         ids=[c[0] for c in PLANNER_CHECKS])
def test_planner_checks_name_the_offending_vertex(make, doctor, call, message,
                                                  vertex):
    ctx = context_for(make())
    call(ctx)  # the undoctored context passes every check
    doctor(ctx)
    with pytest.raises(ConstructionError, match=message) as info:
        call(ctx)
    assert info.value.vertex == vertex
    assert str(info.value).startswith(f"vertex {vertex}: ")


# The helper of each case, and the families of models handed to the planner
# with the cases their vertices reach.
CASE_HELPERS = {"_dominating_slices": "dominating members",
                "_shared_carriers": "shared neighbor",
                "_counter_split": "near counter pair",
                "_cut_counts": "cut", "_separators": "separator"}


PLANNER_FAMILIES = [
    ("rings", lambda: [gen_ring(k) for k in range(3, 41)], {"separator"}),
    ("perturbed_rings",
     lambda: [perturbed_ring(n, seed) for n in (8, 16, 40) for seed in range(5)],
     {"dominating members", "shared neighbor", "separator"}),
    ("wheels", lambda: [gen_wheel(k) for k in range(3, 20)],
     {"dominating members", "shared neighbor"}),
    ("complete", lambda: [gen_complete(n) for n in range(2, 12)], set()),
    ("counter_pairs_and_cuts", lambda: [load(COUNTER_MODEL), gen_random(6, 546),
                                        gen_random(5, 101), gen_random(8, 118)],
     {"near counter pair", "shared neighbor", "cut"}),
    ("random_small",
     lambda: [gen_random(n, seed) for n in range(4, 13) for seed in range(40)],
     set(CASE_HELPERS.values())),
    ("random_large",
     lambda: [gen_random(n, seed) for n in (20, 40) for seed in range(20)],
     {"dominating members", "shared neighbor"}),
    ("covering_3", lambda: covering_models(3), {"dominating members", "shared neighbor"}),
    ("covering_4", lambda: covering_models(4),
     {"dominating members", "shared neighbor", "cut", "separator"}),
    ("covering_5", lambda: covering_models(5),
     {"dominating members", "shared neighbor", "cut", "separator"}),
    ("endpoint_permutations", lambda: endpoint_permutations(300, 3),
     {"dominating members", "shared neighbor", "cut", "separator"}),
]


@pytest.mark.parametrize("make,reached", [f[1:] for f in PLANNER_FAMILIES],
                         ids=[f[0] for f in PLANNER_FAMILIES])
def test_planner_hands_each_helper_only_the_vertices_of_its_case(monkeypatch, make,
                                                                 reached):
    # what the helpers assume of the dispatch and of the frames, and no
    # longer check: each vertex with a facing block goes to the helper of
    # its case once, the helpers get the state their case guarantees, and
    # every left or right vertex they read exists
    calls = []

    def recording(name, helper):
        def record(ctx, vs, *rest):
            calls.append((name, vs.tolist()))
            return helper(ctx, vs, *rest)
        return record

    for name in (*CASE_HELPERS, "_walk_chains"):
        monkeypatch.setattr(arcroute.builder, name,
                            recording(name, getattr(arcroute.builder, name)))
    seen = Counter()
    for model in make():
        ctx = context_for(model)
        calls.clear()
        _plan_facings(ctx)
        handed = []
        for name, vs in calls:
            if name in CASE_HELPERS:
                assert {facing_case(ctx, v) for v in vs} <= {CASE_HELPERS[name]}, model
                handed += vs
                seen.update(facing_case(ctx, v) for v in vs)
            if name == "_dominating_slices":
                # they exist, and ``build_vertex_order`` put them in a row
                doms = np.flatnonzero(ctx.dominating)
                assert len(doms) > 0, model
                assert (ctx.pos[doms] == ctx.pos[doms[0]] + np.arange(len(doms))).all()
            elif name == "_shared_carriers":
                # each has a counter partner, or some vertex dominates
                assert ctx.any_dominating or (ctx.partner[vs] < ctx.n).all(), model
            elif name == "_walk_chains":
                assert not (ctx.any_dominating or ctx.has_counter.any()), model
        assert sorted(handed) == np.flatnonzero(ctx.lo < ctx.hi).tolist(), model
        check_frame_guarantees(ctx)
    assert set(seen) == reached


# -- full schemes ---------------------------------------------------------------


def test_c4_scheme_is_the_frozen_one():
    scheme = build_scheme(load(C4_MODEL))
    assert scheme.to_json() == (
        '{"order": [0, 1, 2, 3], "labels": {'
        '"0->1": [[1, 2]], "0->3": [[3, 3]], '
        '"1->0": [[0, 0]], "1->2": [[2, 3]], '
        '"2->1": [[1, 1]], "2->3": [[3, 0]], '
        '"3->0": [[0, 1]], "3->2": [[2, 2]]}}'
    )


def test_complete_graph_schemes_are_singletons():
    for n in (4, 6):
        scheme = build_scheme(gen_complete(n))
        for (v, w), ivls in labels_of(scheme).items():
            assert ivls == [[w, w]]


def test_scheme_shape_invariants_on_random_corpus():
    for n, seed in [(10, 0), (16, 21), (25, 40), (40, 77)]:
        model = gen_random(n, seed)
        scheme = build_scheme(model)
        order = scheme.order
        per_vertex_doubles = {}
        covered = {v: set() for v in range(n)}
        for (v, w), ivls in labels_of(scheme).items():
            assert len(ivls) <= 2
            if len(ivls) == 2:
                per_vertex_doubles[v] = per_vertex_doubles.get(v, 0) + 1
            for a, b in ivls:
                members = set(ref_ring_sequence(order, a, b))
                assert v not in members
                assert not (covered[v] & members)
                covered[v] |= members
        for v in range(n):
            assert covered[v] == set(range(n)) - {v}
            assert per_vertex_doubles.get(v, 0) <= 1


def test_scheme_json_round_trip():
    scheme = build_scheme(gen_random(14, 5))
    again = RoutingScheme.from_json(scheme.to_json())
    assert again.order == scheme.order
    for name in ("src", "dst", "start", "length"):
        assert (getattr(again, name) == getattr(scheme, name)).all()
    assert again.to_json() == scheme.to_json()


def reference_to_json(scheme):
    """The scheme's JSON by grouping the rows per arc through a dict and
    sorting the arcs, as ``to_json`` wrote it before it read the rows in
    their stored order."""
    items = scheme.order.items.tolist()
    order = ", ".join(str(v) for v in items)
    grouped: dict[tuple[int, int], list[str]] = {}
    n = len(items)
    for v, w, s, ln in zip(scheme.src.tolist(), scheme.dst.tolist(),
                           scheme.start.tolist(), scheme.length.tolist()):
        grouped.setdefault((v, w), []).append(
            f"[{items[s]}, {items[(s + ln - 1) % n]}]"
        )
    entries = [
        f'"{v}->{w}": [{", ".join(grouped[(v, w)])}]'
        for (v, w) in sorted(grouped)
    ]
    return f'{{"order": [{order}], "labels": {{{", ".join(entries)}}}}}'


def test_to_json_matches_the_grouping_reference():
    # and the bulk writer and reader match the row-at-a-time references
    for model in digest_corpus():
        scheme = build_scheme(model)
        text = scheme.to_json()
        assert text == reference_to_json(scheme) == ref_to_json(scheme), model.to_json()
        assert same_scheme(RoutingScheme.from_json(text), ref_from_json(text))
    # keys out of order, arcs with two intervals in either order, and no arcs
    shuffled = RoutingScheme.from_json(
        '{"order": [2, 0, 3, 1], "labels": {"3->0": [[0, 0], [1, 2]], '
        '"0->1": [[1, 3]], "1->0": [[3, 0]], "0->3": [[2, 2], [0, 3]], '
        '"2->1": [[1, 1]]}}')
    assert shuffled.to_json() == reference_to_json(shuffled) == (
        '{"order": [2, 0, 3, 1], "labels": {"0->1": [[1, 3]], '
        '"0->3": [[2, 2], [0, 3]], "1->0": [[3, 0]], "2->1": [[1, 1]], '
        '"3->0": [[0, 0], [1, 2]]}}')
    empty = RoutingScheme.from_json('{"order": [0], "labels": {}}')
    assert empty.to_json() == reference_to_json(empty)


def singleton_runs(n):
    """Every vertex of an identity order sends each destination over its
    own arc, as (source, target, offset, length) runs."""
    return [(v, w, (w - v) % n, 1) for v in range(n) for w in range(n) if v != w]


def join_runs(rows, n):
    """``_join_runs`` over an identity order on n vertices."""
    return _join_runs(np.arange(n), *(np.array(col, dtype=np.int64)
                                      for col in zip(*rows)))


@pytest.mark.parametrize("runs,message", [
    # vertex 2 of an identity order on 7 vertices sees destinations 3 .. 6,
    # 0, 1 at offsets 1 .. 6; runs are (target, offset, length), and the
    # runs of one arc do not abut, so the join keeps them apart
    ([(3, 1, 3), (4, 3, 3)], "intervals overlap or leave a hole"),
    ([(3, 1, 1), (0, 4, 2)], "intervals cover 3 of 6 destinations"),
    ([(3, 1, 2), (1, 3, 5)], "interval covers its own source"),
    ([(3, 1, 1), (4, 2, 1), (3, 3, 1), (5, 4, 1), (3, 5, 1), (6, 6, 1)],
     "an arc carries more than two intervals"),
    # the same with all three missing the target, so that they share a key
    ([(4, 1, 1), (3, 2, 1), (5, 3, 1), (3, 4, 1), (6, 5, 1), (3, 6, 1)],
     "an arc carries more than two intervals"),
    ([(3, 1, 1), (4, 2, 1), (3, 3, 1), (4, 4, 1), (5, 5, 2)],
     "more than one outgoing arc carries two intervals"),
    # a vertex without any run, which a check over the sources that have
    # rows would miss
    ([], "intervals cover 0 of 6 destinations"),
])
def test_shape_check_rejects_broken_arrays(runs, message):
    n = 7
    good = singleton_runs(n)
    assert [len(col) for col in join_runs(good, n)] == [len(good)] * 4
    broken = [row for row in good if row[0] != 2] + [(2, *run) for run in runs]
    with pytest.raises(ConstructionError, match=message) as info:
        join_runs(broken, n)
    assert info.value.vertex == 2


@pytest.fixture(scope="module")
def builder_joins():
    """The order positions and runs that ``build_scheme`` hands to
    ``_join_runs``, with the rows it gets back, for every covering class
    with at most five arcs and for models of the benchmark's sizes."""
    models = [model for n in range(3, 6) for model in covering_models(n)]
    models += [gen_random(200, seed) for seed in range(15)]
    models += [perturbed_ring(300, seed) for seed in range(6)]
    calls = []

    def spy(pos, *runs):
        rows = _join_runs(pos, *runs)
        calls.append((pos, runs, rows))
        return rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arcroute.builder, "_join_runs", spy)
        for model in models:
            build_scheme(model)
    assert len(calls) == len(models) == 1352 + 21
    return calls


def join_outcome(join, pos, runs):
    """The rows ``join`` returns, as (dtype, values) per column, or the
    message and the vertex of the ConstructionError it raises."""
    try:
        return [(col.dtype, col.tolist()) for col in join(pos, *runs)]
    except ConstructionError as exc:
        return str(exc), exc.vertex


def random_run_set(rng, n):
    """A random vertex order on n vertices, as ``pos``, and runs that cut
    each source's offsets 1 .. n - 1 at random, with targets chosen so that
    arcs often carry two intervals, sometimes both missing the target; a
    quarter of the sets are then corrupted, and the rows are shuffled."""
    pos = np.array(rng.sample(range(n), n), dtype=np.int64)
    rows = []
    for v in range(n):
        cuts = sorted(rng.sample(range(2, n), rng.randrange(n - 1)))
        bounds = [1, *cuts, n]
        others = [w for w in range(n) if w != v]
        if rng.random() < 0.1:
            # few targets: arcs with three intervals, two doubled arcs
            targets = [rng.choice(others[:2]) for _ in bounds[1:]]
        else:
            targets = rng.sample(others, len(bounds) - 1)
            if len(targets) > 2 and rng.random() < 0.7:
                i, j = rng.sample(range(len(targets)), 2)
                targets[j] = targets[i]
        rows += [[v, w, a, b - a] for w, a, b in zip(targets, bounds, bounds[1:])]
    if rows and rng.random() < 0.25:
        v = rng.choice([row[0] for row in rows])
        mine = [row for row in rows if row[0] == v]
        kind = rng.randrange(7)
        if kind == 0:  # an overlap, or a run past the source
            rng.choice(mine)[3] += 1
        elif kind == 1 and len(mine) >= 2:  # an overlap and a hole, same total
            max(mine, key=lambda row: row[2])[2] -= 1
        elif kind == 2:  # a hole
            row = rng.choice(mine)
            if row[3] > 1:
                row[3] -= 1
            else:
                rows.remove(row)
        elif kind == 3:  # an offset of 0 or n
            rng.choice(mine)[2] = rng.choice([0, n])
        elif kind == 4 and len(mine) >= 3:  # a third interval on one arc
            for row in rng.sample(mine, 3):
                row[1] = mine[0][1]
        elif kind == 5 and len(mine) >= 4:  # a second doubled arc at one source
            mine[2][1], mine[3][1] = mine[0][1], mine[1][1]
        elif kind == 6:  # rows of one arc that all miss its target
            w = rng.choice([u for u in range(n) if u != v])
            t = (pos[w] - pos[v]) % n
            missing = [row for row in mine if not row[2] <= t < row[2] + row[3]]
            for row in rng.sample(missing, min(3, len(missing))):
                row[1] = w
    # abutting pieces of one run, which the join merges again
    for row in list(rows):
        if row[3] > 1 and rng.random() < 0.2:
            cut = rng.randrange(1, row[3])
            rows.append([row[0], row[1], row[2] + cut, row[3] - cut])
            row[3] = cut
    rng.shuffle(rows)
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return pos, tuple(cols)


def doubled_arcs_missing_target(pos, rows):
    """Arcs whose two joined rows both miss the arc's target."""
    src, dst, start, length = rows
    n = len(pos)
    misses = (pos[dst] - start) % n >= length
    second = ~arcroute.ring_order.changes(src, dst)
    return int((second[1:] & misses[1:] & misses[:-1]).sum())


def test_join_matches_the_stable_sort_reference(builder_joins):
    # the builder's runs as given and shuffled, then random run sets, valid
    # or corrupted: equal rows or the same error naming the same vertex
    rng = random.Random(30)
    for pos, runs, _ in builder_joins:
        shuffled = np.array(rng.sample(range(len(runs[0])), len(runs[0])), dtype=np.int64)
        for cols in (runs, tuple(col[shuffled] for col in runs)):
            assert join_outcome(_join_runs, pos, cols) == join_outcome(
                reference_join_runs, pos, cols)
    outcomes, tied = Counter(), 0
    sizes = [rng.randint(2, 12) for _ in range(2400)] + [150] * 20
    for n in sizes:
        pos, runs = random_run_set(rng, n)
        got = join_outcome(_join_runs, pos, runs)
        assert got == join_outcome(reference_join_runs, pos, runs), (pos, runs)
        if isinstance(got, tuple):
            # the message without its vertex and counts
            outcomes[" ".join(word for word in got[0].partition(": ")[2].split()
                              if not word.isdigit())] += 1
        else:
            outcomes["joined"] += 1
            tied += doubled_arcs_missing_target(
                pos, [np.array(values) for _, values in got]) > 0
    # every verdict occurs, and many joined sets hold a tied pair of rows
    assert min(outcomes.values()) >= 40 and len(outcomes) == 6, outcomes
    assert tied >= 300, (tied, outcomes)


def test_builder_rows_need_no_resort(builder_joins):
    # rows ascend by arc with at most two per arc, so RoutingScheme takes
    # them as they are and never sorts them again
    for pos, _, (src, dst, _, _) in builder_joins:
        arc = src * len(pos) + dst
        assert (arc[1:] >= arc[:-1]).all()
        assert not (arc[2:] == arc[:-2]).any()


def test_interval_model_with_covering_arcs_still_routes():
    # a covering model whose graph is an interval graph: the left-vertex
    # machinery degenerates and the split at the cut takes over
    model = gen_random(5, 101)
    ctx = context_for(model)
    assert not ctx.any_dominating and not ctx.any_counter_pair
    assert any(
        ctx.left_of[v] == -1
        for v in range(5) if not ctx.dominating[v]
    )
    scheme = build_scheme(model)
    assert verify_scheme(ctx.graph, scheme).passed


# -- cuts of the clique cycle ----------------------------------------------------


def crossed_geometrically(model, cycle, c):
    """Does one arc cover every gap from clique c's anchor clockwise
    through clique c + 1's anchor?"""
    size = model.circle_size
    a = int(cycle.anchors[c])
    b = int(cycle.anchors[(c + 1) % cycle.k])
    stretch = [(a + i) % size for i in range((b - a - 1) % size + 2)]
    return any(all(covers_gap(model, v, g) for g in stretch)
               for v in range(model.n))


def test_cut_flag_matches_the_geometric_definition():
    rng = random.Random(5)
    seen = {False: 0, True: 0}
    for _ in range(3000):
        n = rng.randint(2, 8)
        ends = list(range(2 * n))
        rng.shuffle(ends)
        model = validate_model(n, list(zip(ends[::2], ends[1::2])))
        try:
            ctx = context_for(model)
        except NotRealCircularArc:
            continue
        cut = not all(crossed_geometrically(model, ctx.cycle, c)
                      for c in range(ctx.cycle.k))
        assert ctx.has_cut is cut, model
        assert not (cut and ctx.any_counter_pair), model
        seen[cut] += 1
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("model,cut", [
    (gen_random(6, 546), True),
    (gen_random(5, 101), True),
    (gen_random(8, 22), True),
    (gen_ring(3), False),
    (gen_ring(12), False),
    (gen_wheel(3), False),
    (gen_wheel(9), False),
    (perturbed_ring(24, 3), False),
    (perturbed_ring(40, 5), False),
], ids=["random6_546", "random5_101", "random8_22", "ring3", "ring12",
        "wheel3", "wheel9", "perturbed_ring24_3", "perturbed_ring40_5"])
def test_cut_flag_on_named_models(model, cut):
    assert context_for(model).has_cut is cut


def distance_split(ctx, v, r, dist):
    """The facing-block split of a cut model by hop distances: the longest
    prefix one hop closer through the right vertex r routes via r, and
    every later facing vertex must be one hop closer through the left
    vertex.  Returns the prefix length."""
    members = block(ctx, v, ctx.lo[v], ctx.hi[v])
    right_ok = dist[r][members] == dist[v][members] - 1
    prefix = int(np.argmin(right_ok)) if not right_ok.all() else len(members)
    rest = members[prefix:]
    if ctx.left_of[v] == -1:
        assert len(rest) == 0, v
    else:
        assert (dist[ctx.left_of[v]][rest] == dist[v][rest] - 1).all(), v
    return prefix


def test_cut_split_equals_the_distance_split():
    branches = Counter()
    models = 0
    for n in range(5, 17):
        for seed in range(1000):
            model = gen_random(n, seed)
            ctx = context_for(model)
            if not ctx.has_cut or ctx.any_dominating:
                continue
            assert not ctx.any_counter_pair, (n, seed)
            models += 1
            dist = all_pairs_distances(ctx.graph)
            runs = _plan_facings(ctx)
            vs = np.flatnonzero(ctx.lo < ctx.hi)
            for v, r in zip(vs.tolist(), ctx.right_of[vs].tolist()):
                prefix = distance_split(ctx, v, r, dist)
                assert facing_rows(runs, v) == ref_split_facing(
                    ctx, v, r, prefix), (n, seed, v)
                lv = ctx.left_of[v]
                if lv == -1:
                    branches["no left vertex"] += 1
                elif ctx.cycle.left[r] == ctx.cycle.left[lv]:
                    branches["shared left clique"] += 1
                else:
                    branches["at the cut head"] += 1
    assert models >= 37, models
    assert branches["no left vertex"] >= 37, branches
    assert branches["shared left clique"] >= 59, branches
    assert branches["at the cut head"] >= 155, branches


def test_cut_model_splits_at_the_cut_without_distances(search_calls):
    # on gen_random(6, 546) the separator plan of vertex 5 sends a facing
    # vertex off every shortest path; the clique cycle has a cut, so the
    # block is split at the cut instead, with no distance computed
    model = gen_random(6, 546)
    scheme = build_scheme(model)
    assert search_calls == NO_SEARCHES
    graph = intersection_graph(model)
    assert verify_scheme(graph, scheme).passed
    assert (route_lengths(scheme, graph) == all_pairs_distances(graph)).all()


def test_cut_split_rejects_a_misplaced_cut_head():
    # gen_random(6, 546) in order 5 2 0 3 1 4 with cut head 0: vertex 0 has
    # no left vertex, vertex 1 has left vertex 3 and facing block 2 0
    ctx = context_for(gen_random(6, 546))
    assert ctx.cut_head == 0
    ctx.cut_head = 5
    with pytest.raises(ConstructionError, match="is not the cut head") as info:
        _plan_facings(ctx)
    assert info.value.vertex == 0
    # with vertex 0's facing block emptied, vertex 1 fails first
    ctx.lo[0] = ctx.hi[0]
    with pytest.raises(ConstructionError, match="neither in the facing block") as info:
        _plan_facings(ctx)
    assert info.value.vertex == 1


# -- distance checks -----------------------------------------------------------


@pytest.mark.parametrize("model", [gen_ring(32), perturbed_ring(40, 5)],
                         ids=["ring32", "perturbed_ring40"])
def test_separator_builds_compute_no_distances(model, search_calls):
    scheme = build_scheme(model)
    assert search_calls == NO_SEARCHES
    assert verify_scheme(intersection_graph(model), scheme).passed
    # the fixture counts a search made through another module's binding
    assert search_calls["all_pairs_distances"] == 1
    assert search_calls["_frontier_distances"] == 1


def test_perturbed_ring_has_no_dominating_vertex_or_counter_pair():
    ctx = context_for(perturbed_ring(40, 5))
    assert not ctx.any_dominating and not ctx.any_counter_pair


def test_cut_split_computes_no_distances(search_calls):
    # gen_random(8, 22) has a cut, and some vertex of it has no left vertex
    model = gen_random(8, 22)
    scheme = build_scheme(model)
    assert search_calls == NO_SEARCHES
    graph = intersection_graph(model)
    assert verify_scheme(graph, scheme).passed
    assert (route_lengths(scheme, graph) == all_pairs_distances(graph)).all()


def test_dense_build_never_computes_distances(search_calls):
    build_scheme(gen_random(64, 3))
    assert search_calls == NO_SEARCHES


BUILDS_WITHOUT_SCIPY = """
import sys
from arcroute import build_scheme, gen_complete, gen_random, gen_ring, gen_wheel
for model in (gen_ring(12), gen_wheel(9), gen_complete(6), gen_random(64, 3),
              gen_random(6, 546), gen_random(5, 101), gen_random(8, 22)):
    build_scheme(model)
assert "scipy" not in sys.modules, "a build loaded scipy"
"""


def test_sparse_build_holds_no_n_by_n_int64_array():
    # one 3000 x 3000 int64 array alone is 69 MiB; the n-by-n boolean
    # adjacency is 9 MiB
    model = perturbed_ring(3000, 0)
    tracemalloc.start()
    try:
        build_scheme(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_sparse_build_holds_no_n_by_n_array():
    # the smallest n-by-n array, a boolean adjacency, takes n^2 bytes: 15.3
    # MiB at n = 4000, about five times what the build needs
    model = perturbed_ring(4000, 1)
    tracemalloc.start()
    try:
        build_scheme(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.n ** 2


def test_builds_never_load_scipy():
    # a fresh interpreter sees any graph search through scipy, whatever
    # name calls it; the last three models have a cut
    done = subprocess.run([sys.executable, "-c", BUILDS_WITHOUT_SCIPY],
                          env=src_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_coverage_is_checked_once_per_build(monkeypatch):
    # a build reads the arcs once and counts the arcs over the circle's
    # 2n gaps once, through any binding of either function; the cut test
    # counts clique runs over k < 2n cliques, so it is not counted
    calls = Counter()
    circle = 12

    def count_calls(module, name, counts):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += counts(*args)
            return real(*args)

        for bound in list(sys.modules.values()):
            if (getattr(bound, "__name__", "").partition(".")[0] == "arcroute"
                    and getattr(bound, name, None) is real):
                monkeypatch.setattr(bound, name, wrapper)

    count_calls(arcroute.arc_model, "arc_spans", lambda model: 1)
    count_calls(arcroute.ring_order, "ring_coverage",
                lambda starts, lengths, size: size == circle)
    build_scheme(gen_ring(6))
    assert calls == {"arc_spans": 1, "ring_coverage": 1}
    circle = 4
    with pytest.raises(NotRealCircularArc):
        build_scheme(load({"n": 2, "arcs": [[0, 1], [2, 3]]}))
    assert calls == {"arc_spans": 2, "ring_coverage": 2}


# sha256 of to_json(), recorded before the distance checks moved from
# per-vertex BFS to one matrix; any change of the emitted bytes fails here
GOLDEN_SCHEMES = [
    ("ring12", lambda: gen_ring(12),
     "4919542bdf3115801ec89382ccf93aed042d9042fdbc47326df9d2b9a0168ab1"),
    ("wheel7", lambda: gen_wheel(7),
     "88ad32f25e0702eef8faebbacdf49a403dedf8944ccc996623fb4296d832cbbd"),
    ("random8_22", lambda: gen_random(8, 22),
     "86d3eff6c7683b5f262eea036b12d94527e1f695954e86ecd279a8c5a84dff0b"),
    ("random10_6", lambda: gen_random(10, 6),
     "17e772b244bcae1ca83e3ab1fd48659cd8912ddd338072cb26c3311e9e3a9943"),
    ("random40_1", lambda: gen_random(40, 1),
     "20f1d402f71b17c069b0303daef114c6f48b31bae04cdbf688f9b526e47d1aed"),
    ("perturbed_ring24_3", lambda: perturbed_ring(24, 3),
     "fbbe10f9e0052f102025eb36acff04e179952cf3513442541933887b04977c8f"),
    ("perturbed_ring40_5", lambda: perturbed_ring(40, 5),
     "756debf980616b201fc0090e3c16fc57bfd33ffed669ab5fa479d908b8229f5d"),
]


@pytest.mark.parametrize("make,digest", [g[1:] for g in GOLDEN_SCHEMES],
                         ids=[g[0] for g in GOLDEN_SCHEMES])
def test_scheme_json_is_byte_identical_to_the_recorded_one(make, digest):
    text = build_scheme(make()).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def digest_corpus():
    """504 models, 85 of them with a cut: rings, wheels, complete graphs,
    small to mid-size random models and perturbed rings."""
    models = [gen_ring(k) for k in range(3, 40)]
    models += [gen_wheel(k) for k in range(3, 20)]
    models += [gen_complete(n) for n in range(2, 12)]
    models += [gen_random(n, seed) for n in (4, 6, 8, 12, 16, 24, 32, 64)
               for seed in range(50)]
    models += [perturbed_ring(n, seed) for n in (8, 16, 40, 120) for seed in range(10)]
    return models


# sha256 of the corpus's to_json() texts joined by newlines, recorded
# before the vertex order stopped reading pinned spans and the separator
# stopped walking the chains a second time
CORPUS_DIGEST = "91e129d01ce23a301d67a93445b2b7b9e77980e699aa16bf5c3af48868fbab1b"


def test_corpus_schemes_are_byte_identical_to_the_recorded_ones():
    texts = [build_scheme(model).to_json() for model in digest_corpus()]
    assert len(texts) == 504
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == CORPUS_DIGEST


# sha256 of the to_json() texts of five dense gen_random(200) models and
# three sparse perturbed_ring(300) models, joined by newlines, recorded
# before the builder joined all runs in one bulk pass; the dense models
# give that join most of its rows
BENCH_SIZE_DIGEST = "42fd6091de03f38e3d6f0213c854ffb169da93ba1e551fa413d297200dd645c4"


def test_benchmark_size_schemes_are_byte_identical_to_the_recorded_ones():
    models = [gen_random(200, seed) for seed in range(5)]
    models += [perturbed_ring(300, seed) for seed in range(3)]
    texts = [build_scheme(model).to_json() for model in models]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == BENCH_SIZE_DIGEST


# sha256 of the to_json() text of perturbed_ring(100000, 1), recorded
# before the left vertices became int64: n * n lies past the int32 range,
# so a separator search keyed by an int32 left iterate times n would wrap
LARGE_RING_DIGEST = "12d5fb48fca281b9f11b14a5cfdadb17e2d02505385831936d1570e7025cd174"


def test_build_past_the_int32_key_range_is_recorded_and_shortest():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    model = perturbed_ring(100000, 1)
    scheme = build_scheme(model)
    assert hashlib.sha256(scheme.to_json().encode()).hexdigest() == LARGE_RING_DIGEST
    # every row of 64 spread sources against hop distances from the source
    # and its carriers: the first hop must be one step closer to every
    # destination
    graph = intersection_graph(model)
    n, keys = graph.n, graph.keys
    mat = csr_matrix((np.ones(len(keys)), keys % n, graph.indptr), shape=(n, n))
    items = scheme.order.items
    rows = 0
    for s in np.linspace(0, n - 1, 64).astype(np.int64).tolist():
        first, end = scheme.src.searchsorted([s, s + 1])
        carriers = np.unique(scheme.dst[first:end])
        dist = shortest_path(mat, method="D", unweighted=True, indices=[s, *carriers])
        assert np.isfinite(dist).all()
        for i in range(first, end):
            hop = scheme.dst[i]
            targets = items[(scheme.start[i] + np.arange(scheme.length[i])) % n]
            closer = dist[1 + carriers.searchsorted(hop), targets]
            assert (closer == dist[0, targets] - 1).all(), (s, hop)
            rows += 1
    assert rows >= 64 * 2
