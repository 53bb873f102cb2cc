import itertools
import random

import numpy as np
import pytest

from arcroute import (
    build_clique_cycle,
    build_vertex_order,
    gen_random,
    gen_ring,
    gen_wheel,
    intersection_graph,
    validate_model,
)
from arcroute.arc_model import is_real
from arcroute.errors import NotRealCircularArc
from conftest import C4_MODEL, COUNTER_MODEL, K3_MODEL, load


def cycle_of(payload):
    model = load(payload)
    graph = intersection_graph(model)
    return build_clique_cycle(model, graph), graph


def member_sets(cycle):
    return [set(cycle.members(c)) for c in range(cycle.k)]


def counter_partners(cycle, v):
    """Neighbors of v whose shared clique run splits in two pieces."""
    return {int(w) for w in np.flatnonzero(cycle.counter_matrix()[v])}


def test_rejects_non_real_model():
    model = load({"n": 2, "arcs": [[0, 1], [2, 3]]})
    with pytest.raises(NotRealCircularArc):
        build_clique_cycle(model)


def test_c4_cliques_and_spans():
    cycle, _ = cycle_of(C4_MODEL)
    assert member_sets(cycle) == [{0, 3}, {0, 1}, {1, 2}, {2, 3}]
    # vertex 0 sits in the wrap clique {0,3} first, then {0,1}
    assert int(cycle.left[0]) == 0 and int(cycle.right[0]) == 1
    assert int(cycle.left[3]) == 3 and int(cycle.right[3]) == 0
    cycle.validate()


def test_k3_cliques_are_the_three_pairs():
    # the three mutually overlapping arcs never share a single point, so
    # the point cliques are exactly the pairwise ones
    cycle, _ = cycle_of(K3_MODEL)
    assert member_sets(cycle) == [{0, 2}, {0, 1}, {1, 2}]
    cycle.validate()


def test_wheel_hub_spans_whole_cycle():
    model = gen_wheel(6)
    graph = intersection_graph(model)
    cycle = build_clique_cycle(model, graph)
    hub = 6
    assert all(hub in cycle.members(c) for c in range(cycle.k))
    assert int(cycle.span_len[hub]) == cycle.k
    # the all-adjacent hub closes the block of clique 1
    assert int(build_vertex_order(cycle).tail[1]) == hub
    cycle.validate()


def test_clique_count_bounded_by_positions():
    for n, seed in [(6, 0), (9, 3), (14, 7)]:
        model = gen_random(n, seed)
        cycle = build_clique_cycle(model)
        assert cycle.k <= model.circle_size
        cycle.validate()


def test_counter_pair_detected():
    cycle, _ = cycle_of(COUNTER_MODEL)
    assert counter_partners(cycle, 0) == {1}
    assert counter_partners(cycle, 2) == {3}
    cycle.validate()


def test_c4_has_no_counter_pairs():
    cycle, _ = cycle_of(C4_MODEL)
    for v in range(4):
        assert counter_partners(cycle, v) == set()


def test_counter_relation_is_symmetric():
    for n, seed in [(8, 1), (12, 5), (16, 11)]:
        model = gen_random(n, seed)
        graph = intersection_graph(model)
        cycle = build_clique_cycle(model, graph)
        for v in range(n):
            for w in counter_partners(cycle, v):
                assert v in counter_partners(cycle, w)


def test_counter_matches_membership_definition():
    # counter pair <=> the shared cliques are not one contiguous run
    for n, seed in [(8, 2), (10, 9)]:
        model = gen_random(n, seed)
        graph = intersection_graph(model)
        cycle = build_clique_cycle(model, graph)
        sets = member_sets(cycle)
        for v, w in itertools.combinations(range(n), 2):
            if not graph.adjacent(v, w):
                continue
            shared = sorted(c for c in range(cycle.k) if {v, w} <= sets[c])
            runs = 1
            for a, b in zip(shared, shared[1:]):
                if b != a + 1:
                    runs += 1
            if shared and shared[0] == 0 and shared[-1] == cycle.k - 1 and runs > 1:
                runs -= 1  # wrap joins the two border runs
            assert (w in counter_partners(cycle, v)) == (runs > 1)


def test_vertices_with_counter_partner_dominate_jointly():
    # any vertex must see v or all of v's counter partners
    for n, seed in [(8, 1), (12, 5), (16, 11), (20, 2)]:
        model = gen_random(n, seed)
        graph = intersection_graph(model)
        cycle = build_clique_cycle(model, graph)
        for v in range(n):
            partners = counter_partners(cycle, v)
            if not partners:
                continue
            for u in range(n):
                if u == v or graph.adjacent(u, v):
                    continue
                assert all(graph.adjacent(u, w) or u == w for w in partners)


def test_span_membership_equals_clique_membership():
    for k in (4, 7):
        cycle = build_clique_cycle(gen_ring(k))
        sets = member_sets(cycle)
        for v in range(k):
            for c in range(cycle.k):
                in_run = (c - cycle.left[v]) % cycle.k < cycle.span_len[v]
                assert in_run == (v in sets[c])


def test_maximality_no_clique_inside_another():
    for n, seed in [(10, 4), (15, 8)]:
        cycle = build_clique_cycle(gen_random(n, seed))
        sets = member_sets(cycle)
        for a, b in itertools.permutations(range(cycle.k), 2):
            assert not sets[a] <= sets[b]


def test_dump_format(c4_model):
    cycle = build_clique_cycle(c4_model)
    lines = cycle.dump().splitlines()
    assert lines[0] == "0: {0, 3}"
    assert lines[4] == "0: lc=0 rc=1"
    assert len(lines) == cycle.k + 4


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
        sets = [frozenset(a for a in range(n) if model.covers_gap(a, g))
                for g in range(model.circle_size)]
        first: dict[frozenset, int] = {}
        for g, members in enumerate(sets):
            if not any(members < other for other in sets):
                first.setdefault(members, g)
        assert build_clique_cycle(model).anchors.tolist() == sorted(first.values())
        checked += 1
    assert checked > 100
