import itertools
import random
import tracemalloc
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from arcroute import (
    build_clique_cycle,
    build_vertex_order,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    intersection_graph,
    validate_model,
)
from arcroute.arc_model import arc_spans, gap_coverage, is_real
from arcroute.builder import LabelingContext
from arcroute.clique_cycle import clique_runs, counter_pairs
from arcroute.errors import NotRealCircularArc
from conftest import (
    C4_MODEL,
    COUNTER_MODEL,
    K3_MODEL,
    covers_gap,
    load,
    members,
    perturbed_ring,
    ref_validate_cycle,
    reference_counter_matrix,
    reference_intersection_graph,
)


def cycle_of(payload):
    model = load(payload)
    return build_clique_cycle(model), model


def member_sets(cycle, model):
    return [set(members(cycle, model, c)) for c in range(cycle.k)]


def counter_partners(cycle, model, v):
    """Neighbors of v whose shared clique run splits in two pieces."""
    counter = reference_counter_matrix(cycle, intersection_graph(model))
    return {int(w) for w in np.flatnonzero(counter[v])}


def test_rejects_non_real_model():
    model = load({"n": 2, "arcs": [[0, 1], [2, 3]]})
    with pytest.raises(NotRealCircularArc):
        build_clique_cycle(model)


def test_rejects_non_real_model_before_building_its_graph(monkeypatch):
    def unreachable(*spans):
        raise AssertionError("the graph of a model that does not cover")

    monkeypatch.setattr("arcroute.clique_cycle.intersection_edges", unreachable)
    with pytest.raises(NotRealCircularArc):
        build_clique_cycle(load({"n": 2, "arcs": [[0, 1], [2, 3]]}))


def test_cycle_holds_the_intersection_graph_of_its_model():
    model = gen_ring(5)
    cycle = build_clique_cycle(model)
    adj = np.zeros((model.n, model.n), dtype=bool)
    adj[cycle.edges] = True
    assert (adj == intersection_graph(model).adj).all()
    assert cycle.degrees.tolist() == [2] * 5 and not cycle.dominating.any()


def test_c4_cliques_and_spans():
    cycle, model = cycle_of(C4_MODEL)
    assert member_sets(cycle, model) == [{0, 3}, {0, 1}, {1, 2}, {2, 3}]
    # vertex 0 sits in the wrap clique {0,3} first, then {0,1}
    assert int(cycle.left[0]) == 0 and int(cycle.right[0]) == 1
    assert int(cycle.left[3]) == 3 and int(cycle.right[3]) == 0
    ref_validate_cycle(cycle, model)


def test_k3_cliques_are_the_three_pairs():
    # the three mutually overlapping arcs never share a single point, so
    # the point cliques are exactly the pairwise ones
    cycle, model = cycle_of(K3_MODEL)
    assert member_sets(cycle, model) == [{0, 2}, {0, 1}, {1, 2}]
    ref_validate_cycle(cycle, model)


def test_wheel_hub_spans_whole_cycle():
    model = gen_wheel(6)
    cycle = build_clique_cycle(model)
    hub = 6
    assert all(hub in members(cycle, model, c) for c in range(cycle.k))
    assert int(cycle.span_len[hub]) == cycle.k
    # the all-adjacent hub closes the block of clique 1
    assert int(build_vertex_order(cycle).tail[1]) == hub
    ref_validate_cycle(cycle, model)


def test_clique_count_bounded_by_positions():
    for n, seed in [(6, 0), (9, 3), (14, 7)]:
        model = gen_random(n, seed)
        cycle = build_clique_cycle(model)
        assert cycle.k <= model.circle_size
        ref_validate_cycle(cycle, model)


def test_counter_pair_detected():
    cycle, model = cycle_of(COUNTER_MODEL)
    assert counter_partners(cycle, model, 0) == {1}
    assert counter_partners(cycle, model, 2) == {3}
    ref_validate_cycle(cycle, model)


def test_c4_has_no_counter_pairs():
    cycle, model = cycle_of(C4_MODEL)
    for v in range(4):
        assert counter_partners(cycle, model, v) == set()


def test_counter_relation_is_symmetric():
    for n, seed in [(8, 1), (12, 5), (16, 11)]:
        model = gen_random(n, seed)
        cycle = build_clique_cycle(model)
        for v in range(n):
            for w in counter_partners(cycle, model, v):
                assert v in counter_partners(cycle, model, w)


def test_counter_matches_membership_definition():
    # counter pair <=> the shared cliques are not one contiguous run
    for n, seed in [(8, 2), (10, 9)]:
        model = gen_random(n, seed)
        cycle = build_clique_cycle(model)
        graph = intersection_graph(model)
        sets = member_sets(cycle, model)
        for v, w in itertools.combinations(range(n), 2):
            if not graph.adj[v, w]:
                continue
            shared = sorted(c for c in range(cycle.k) if {v, w} <= sets[c])
            runs = 1
            for a, b in zip(shared, shared[1:]):
                if b != a + 1:
                    runs += 1
            if shared and shared[0] == 0 and shared[-1] == cycle.k - 1 and runs > 1:
                runs -= 1  # wrap joins the two border runs
            assert (w in counter_partners(cycle, model, v)) == (runs > 1)


def test_vertices_with_counter_partner_dominate_jointly():
    # any vertex must see v or all of v's counter partners
    for n, seed in [(8, 1), (12, 5), (16, 11), (20, 2)]:
        model = gen_random(n, seed)
        cycle = build_clique_cycle(model)
        graph = intersection_graph(model)
        for v in range(n):
            partners = counter_partners(cycle, model, v)
            if not partners:
                continue
            for u in range(n):
                if u == v or graph.adj[u, v]:
                    continue
                assert all(graph.adj[u, w] or u == w for w in partners)


def test_span_membership_equals_clique_membership():
    for k in (4, 7):
        model = gen_ring(k)
        cycle = build_clique_cycle(model)
        sets = member_sets(cycle, model)
        for v in range(k):
            for c in range(cycle.k):
                in_run = (c - cycle.left[v]) % cycle.k < cycle.span_len[v]
                assert in_run == (v in sets[c])


def test_maximality_no_clique_inside_another():
    for n, seed in [(10, 4), (15, 8)]:
        model = gen_random(n, seed)
        cycle = build_clique_cycle(model)
        sets = member_sets(cycle, model)
        for a, b in itertools.permutations(range(cycle.k), 2):
            assert not sets[a] <= sets[b]


def test_anchors_are_the_first_gaps_of_the_maximal_cliques():
    # brute force over every gap: a gap's member set is a clique of the
    # cycle iff no other gap's set strictly contains it, and its anchor is
    # the first gap holding that set
    rng = random.Random(11)
    checked = 0
    for n in list(range(2, 8)) * 150:
        ends = rng.sample(range(2 * n), 2 * n)
        model = validate_model(n, list(zip(ends[::2], ends[1::2])))
        if not is_real(model):
            continue
        sets = [frozenset(a for a in range(n) if covers_gap(model, a, g))
                for g in range(model.circle_size)]
        first: dict[frozenset, int] = {}
        for g, members in enumerate(sets):
            if not any(members < other for other in sets):
                first.setdefault(members, g)
        assert build_clique_cycle(model).anchors.tolist() == sorted(first.values())
        checked += 1
    assert checked > 100


# Reference: the member-bitmask filter and the per-vertex run loop that
# clique_runs replaced, kept to check the geometric containment test.

def _gap_masks(model, spans, gaps: list[int]) -> list[int]:
    """Member bitmask of each requested gap, via one sweep of the circle."""
    size = model.circle_size
    wanted = set(gaps)
    add_at: list[list[int]] = [[] for _ in range(size)]
    drop_at: list[list[int]] = [[] for _ in range(size)]
    mask = 0
    for a, (s, length) in enumerate(spans):
        if (0 - s) % size < length:
            mask |= 1 << a
        if s != 0:
            add_at[s].append(a)
        drop_at[(s + length) % size].append(a)

    out: dict[int, int] = {}
    for g in range(size):
        if g > 0:
            for a in drop_at[g]:
                mask &= ~(1 << a)
            for a in add_at[g]:
                mask |= 1 << a
        if g in wanted:
            out[g] = mask
    return [out[g] for g in gaps]


def _exact_maximal_anchors(model, spans, sizes, candidates, drops):
    """Exact inclusion filter on the candidate gaps, by member bitmask.

    Candidates are deduplicated (first gap per member set wins), ordered
    by decreasing clique size, and each is tested against the already
    accepted cliques; transitivity makes testing against accepted maximal
    sets sufficient.  ``drops`` counts the candidates dropped as an equal
    set with a later first gap and those dropped inside a larger clique.
    """
    masks = _gap_masks(model, spans, candidates)
    first_of_mask: dict[int, int] = {}
    for g, mask in zip(candidates, masks):
        first_of_mask.setdefault(mask, g)
    drops["equal"] += len(candidates) - len(first_of_mask)
    distinct = sorted(first_of_mask.items(),
                      key=lambda item: (-int(sizes[item[1]]), item[1]))

    words = (model.n + 63) // 64
    word_mask = (1 << 64) - 1

    def to_words(mask: int) -> list[int]:
        return [(mask >> (64 * w)) & word_mask for w in range(words)]

    accepted_sizes: list[int] = []
    anchors: list[int] = []
    arr = np.empty((len(distinct), words), dtype=np.uint64)
    filled = 0
    for mask, g in distinct:
        size_g = int(sizes[g])
        row = np.array(to_words(mask), dtype=np.uint64)
        # only strictly larger accepted cliques can strictly contain this one
        upper = 0
        while upper < filled and accepted_sizes[upper] > size_g:
            upper += 1
        if upper:
            outside = (row[None, :] & ~arr[:upper]) != 0
            if not outside.any(axis=1).all():
                drops["inside"] += 1
                continue  # some accepted clique contains every member
        arr[filled] = row
        accepted_sizes.append(size_g)
        filled += 1
        anchors.append(g)
    return sorted(anchors)


def reference_clique_runs(model, drops):
    """Anchors, left, right and span_len by bitmask filter and bisection."""
    n = model.n
    size = model.circle_size
    spans = list(zip(*(a.tolist() for a in arc_spans(model))))
    opens = np.zeros(size, dtype=bool)
    opens[[s for s, _ in model.arcs]] = True
    candidates = np.flatnonzero(opens & ~np.roll(opens, -1)).tolist()
    anchors = _exact_maximal_anchors(model, spans, gap_coverage(model),
                                     candidates, drops)
    drops["far"] += _far_overlap_count(model, candidates)

    k = len(anchors)
    left, right, span_len = [], [], []
    doubled = anchors + [a + size for a in anchors]
    for v in range(n):
        s, length = spans[v]
        lo = bisect_left(doubled, s)
        count = bisect_right(doubled, s + length - 1) - lo
        assert count >= 1, f"arc {v} covers no maximal clique anchor"
        count = min(count, k)
        left.append(lo % k)
        right.append((lo + count - 1) % k)
        span_len.append(count)
    return anchors, left, right, span_len


def _far_overlap_count(model, candidates) -> int:
    """Candidates g with another candidate covered by both the arc opening
    at g and the arc closing at g + 1."""
    size = model.circle_size
    opening = {s: a for a, (s, _) in enumerate(model.arcs)}
    closing = {e: b for b, (_, e) in enumerate(model.arcs)}
    found = 0
    for g in candidates:
        a, b = opening[g], closing[(g + 1) % size]
        found += any(h != g and covers_gap(model, a, h) and covers_gap(model, b, h)
                     for h in candidates)
    return found


def _differential_corpus():
    rng = random.Random(0)
    permutations = 0
    while permutations < 3000:
        n = rng.randint(1, 13)
        ends = rng.sample(range(2 * n), 2 * n)
        model = validate_model(n, list(zip(ends[::2], ends[1::2])))
        if is_real(model):
            permutations += 1
            yield model
    for n in range(3, 64, 3):
        for seed in range(20):
            yield gen_random(n, seed)
    for k in range(3, 40):
        yield gen_ring(k)
        yield gen_wheel(k)
    for n in range(2, 20):
        yield gen_complete(n)
    for n in (8, 16, 40, 120):
        for seed in range(5):
            yield perturbed_ring(n, seed)


def test_clique_runs_match_the_bitmask_reference():
    drops = {"far": 0, "inside": 0, "equal": 0}
    models = 0
    for model in _differential_corpus():
        sizes = gap_coverage(model)
        anchors, left, right, span_len = clique_runs(*arc_spans(model), sizes)
        expected = reference_clique_runs(model, drops)
        got = (anchors.tolist(), left.tolist(), right.tolist(), span_len.tolist())
        assert got == expected, model.to_json()
        models += 1
    assert models > 3500
    # the corpus reaches every branch of the containment test: candidates
    # with something in their far overlap, and both kinds of drop
    assert drops["far"] > 5000
    assert drops["inside"] > 2000
    assert drops["equal"] > 400


def test_counter_pairs_and_adjacency_match_the_n_by_n_references():
    models = with_pairs = 0
    for model in _differential_corpus():
        cycle = build_clique_cycle(model)
        graph = intersection_graph(model)
        assert (graph.adj == reference_intersection_graph(model).adj).all(), \
            model.to_json()
        lc, ln = cycle.left, cycle.span_len
        pairs = counter_pairs(lc[:, None], ln[:, None], lc[None, :], ln[None, :],
                              cycle.k)
        # the predicate reads no adjacency: a counter pair shares a clique
        assert not (pairs & ~graph.adj).any(), model.to_json()
        expected = reference_counter_matrix(cycle, graph)
        assert (pairs == expected).all(), model.to_json()
        # off the diagonal two arcs meet iff their clique runs share a clique,
        # so the runs alone could stand in for the adjacency
        k = cycle.k
        share = (((lc[None] - lc[:, None]) % k < ln[:, None])
                 | ((lc[:, None] - lc[None]) % k < ln[None]))
        off = ~np.eye(model.n, dtype=bool)
        assert (share == graph.adj)[off].all(), model.to_json()
        ctx = LabelingContext(cycle, build_vertex_order(cycle))
        lowest = np.where(expected.any(axis=1), expected.argmax(axis=1), model.n)
        assert ctx.partner.tolist() == lowest.tolist(), model.to_json()
        models += 1
        with_pairs += bool(expected.any())
    assert models > 3500
    assert with_pairs > 1000


def test_clique_runs_memory_is_linear_in_the_arcs():
    # any k-by-n membership structure (k ~ n cliques) would take hundreds
    # of MiB at n = 20000, and even a bitset 50 MB
    model = perturbed_ring(20000, 0)
    sizes = gap_coverage(model)
    tracemalloc.start()
    try:
        anchors, left, right, span_len = clique_runs(*arc_spans(model), sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(anchors) > 1000 and (span_len >= 1).all()
    assert peak < 16 * 2**20
