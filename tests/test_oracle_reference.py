"""The oracle's per-vertex step against the exact-cover search it replaced.

``ref_segments_for_vertex`` and ``ref_segments_to_labels`` are the former
``oracle._segments_for_vertex`` and ``_segments_to_labels``: a memoised
search over bitmasks of unused arcs, with a separate wrap-around search.
The oracle now decides each vertex from one run per neighbor; these tests
check that every verdict and every label stays the same.
"""

import random
from itertools import permutations

import pytest

from arcroute import (
    all_pairs_distances,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    has_shortest_path_1irs,
    intersection_graph,
    oracle,
)
from arcroute.ring_order import RingInterval
from conftest import graph_from_edges


def ref_segments_for_vertex(order, allowed, v, nbrs, strict):
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
        return ref_segments_to_labels(v, seq, nbrs, plain, None)
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
                    return ref_segments_to_labels(
                        v, seq, nbrs, middle, (wi, i, j)
                    )
    return None


def ref_segments_to_labels(v, seq, nbrs, middle, wrap):
    labels: dict[tuple[int, int], RingInterval] = {}
    for wi, i, j in middle:
        labels[(v, nbrs[wi])] = RingInterval(seq[i], seq[j])
    if wrap is not None:
        wi, i, j = wrap
        lo = seq[j] if j < len(seq) else v
        hi = seq[i] if i >= 0 else v
        labels[(v, nbrs[wi])] = RingInterval(lo, hi)
    return labels


def reference_masks(dist, v, nbrs):
    """The reference's ``allowed[v]``: per arc w, a bitmask of the
    destinations u with w on a shortest v->u path."""
    return {w: sum(1 << u for u in range(len(dist))
                   if u != v and dist[w, u] == dist[v, u] - 1)
            for w in nbrs}


def random_graph(n, seed):
    """A seeded graph on n vertices, possibly disconnected."""
    rng = random.Random(seed)
    p = rng.uniform(0.3, 0.9)
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


# every cyclic order of a 7-vertex graph costs about 0.4 s, so one random
# model and one random graph have 7 vertices and the others fewer
SIZES = [(n, s) for n in range(2, 7) for s in range(8)] + [(7, 0)]
CORPUS = (
    [(f"ring-{k}", intersection_graph(gen_ring(k))) for k in range(3, 8)]
    + [(f"wheel-{k}", intersection_graph(gen_wheel(k))) for k in range(3, 7)]
    + [(f"complete-{k}", intersection_graph(gen_complete(k))) for k in range(2, 8)]
    + [(f"random-{n}-{s}", intersection_graph(gen_random(n, s)))
       for n, s in SIZES if n > 2]
    + [(f"graph-{n}-{s}", random_graph(n, s)) for n, s in SIZES]
)


@pytest.mark.parametrize("name, graph", CORPUS, ids=[name for name, _ in CORPUS])
def test_per_vertex_step_matches_the_cover_search(name, graph):
    n = graph.n
    dist = all_pairs_distances(graph)
    allowed = (dist[None, :, :] == dist[:, None, :] - 1).tolist()
    nbrs = [[w for w in range(n) if graph.adj[v, w]] for v in range(n)]
    masks = [reference_masks(dist, v, nbrs[v]) for v in range(n)]
    for rest in permutations(range(1, n)):
        order = (0,) + rest
        for v in range(n):
            for strict in (False, True):
                got = oracle._segments_for_vertex(order, allowed, v, nbrs[v], strict)
                want = ref_segments_for_vertex(order, masks, v, nbrs[v], strict)
                assert got == want, (order, v, strict)
                if got is not None:
                    assert list(got) == list(want)


def reference_step(graph):
    """The reference in place of the oracle's per-vertex step, with its own
    masks: the oracle's ``allowed`` is not read."""
    dist = all_pairs_distances(graph)
    masks = [reference_masks(dist, v, range(graph.n)) for v in range(graph.n)]

    def step(order, allowed, v, nbrs, strict):
        return ref_segments_for_vertex(order, masks, v, nbrs, strict)

    return step


WHOLE = ([(f"W{k}", gen_wheel(k), False) for k in range(3, 9)]
         + [(f"random-8-{s}" + ("-strict" if strict else ""), gen_random(8, s), strict)
            for s in (0, 1, 2) for strict in (False, True)])


@pytest.mark.parametrize("name, model, strict", WHOLE, ids=[name for name, _, _ in WHOLE])
def test_oracle_matches_the_cover_search(monkeypatch, name, model, strict):
    graph = intersection_graph(model)
    got = has_shortest_path_1irs(graph, strict=strict)
    monkeypatch.setattr(oracle, "_segments_for_vertex", reference_step(graph))
    want = has_shortest_path_1irs(graph, strict=strict)
    assert got.exists_1irs == want.exists_1irs
    assert got.witness_order == want.witness_order
    assert got.witness_labels == want.witness_labels
