import itertools
import random

import pytest

from arcroute import (
    build_clique_cycle,
    counter_vertices,
    gen_random,
    gen_ring,
    gen_wheel,
    intersection_graph,
    reaches_further_left,
    reaches_further_right,
    validate_model,
)
from arcroute.arc_model import is_real
from arcroute.clique_cycle import EQUAL, FURTHER, LESS
from arcroute.errors import NotRealCircularArc, UndefinedComparisonError
from conftest import C4_MODEL, COUNTER_MODEL, K3_MODEL, load


def cycle_of(payload):
    model = load(payload)
    graph = intersection_graph(model)
    return build_clique_cycle(model, graph), graph


def member_sets(cycle):
    return [set(cycle.members(c)) for c in range(cycle.k)]


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
    # spans of an all-adjacent vertex are pinned next to the lowest clique
    assert int(cycle.left[hub]) == 1 and int(cycle.right[hub]) == 0
    assert int(cycle.span_len[hub]) == cycle.k
    cycle.validate()


def test_clique_count_bounded_by_positions():
    for n, seed in [(6, 0), (9, 3), (14, 7)]:
        model = gen_random(n, seed)
        cycle = build_clique_cycle(model)
        assert cycle.k <= model.circle_size
        cycle.validate()


def test_counter_pair_detected():
    cycle, graph = cycle_of(COUNTER_MODEL)
    assert counter_vertices(cycle, graph, 0) == {1}
    assert counter_vertices(cycle, graph, 2) == {3}
    cycle.validate()


def test_c4_has_no_counter_pairs():
    cycle, graph = cycle_of(C4_MODEL)
    for v in range(4):
        assert counter_vertices(cycle, graph, v) == set()


def test_counter_relation_is_symmetric():
    for n, seed in [(8, 1), (12, 5), (16, 11)]:
        model = gen_random(n, seed)
        graph = intersection_graph(model)
        cycle = build_clique_cycle(model, graph)
        for v in range(n):
            for w in counter_vertices(cycle, graph, v):
                assert v in counter_vertices(cycle, graph, w)


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
            assert (w in counter_vertices(cycle, graph, v)) == (runs > 1)


def test_vertices_with_counter_partner_dominate_jointly():
    # any vertex must see v or all of v's counter partners
    for n, seed in [(8, 1), (12, 5), (16, 11), (20, 2)]:
        model = gen_random(n, seed)
        graph = intersection_graph(model)
        cycle = build_clique_cycle(model, graph)
        for v in range(n):
            partners = counter_vertices(cycle, graph, v)
            if not partners:
                continue
            for u in range(n):
                if u == v or graph.adjacent(u, v):
                    continue
                assert all(graph.adjacent(u, w) or u == w for w in partners)


def test_reaches_further_left_c4():
    cycle, _ = cycle_of(C4_MODEL)
    # at the wrap clique {0,3}: vertex 3 entered one clique earlier
    assert reaches_further_left(cycle, 3, 0, 0) == FURTHER
    assert reaches_further_left(cycle, 0, 3, 0) == LESS
    assert reaches_further_left(cycle, 0, 0, 0) == EQUAL


def test_reaches_further_right_c4():
    cycle, _ = cycle_of(C4_MODEL)
    # at clique {0,1}: vertex 1 continues into {1,2}, vertex 0 stops
    assert reaches_further_right(cycle, 1, 0, 1) == FURTHER
    assert reaches_further_right(cycle, 0, 1, 1) == LESS


def test_reach_comparison_requires_shared_clique():
    cycle, _ = cycle_of(C4_MODEL)
    with pytest.raises(UndefinedComparisonError):
        reaches_further_left(cycle, 0, 2, 0)


def test_reach_comparison_rejects_counter_pair():
    cycle, graph = cycle_of(COUNTER_MODEL)
    # both members of the counter pair share clique 0, yet the comparison
    # is undefined for them
    assert {0, 1} <= set(cycle.members(0))
    with pytest.raises(UndefinedComparisonError):
        reaches_further_left(cycle, 0, 1, 0)


def test_span_membership_equals_clique_membership():
    for k in (4, 7):
        cycle = build_clique_cycle(gen_ring(k))
        sets = member_sets(cycle)
        for v in range(k):
            for c in range(cycle.k):
                assert cycle.natural_contains(v, c) == (v in sets[c])


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
