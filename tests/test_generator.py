import itertools

import numpy as np
import pytest

from arcroute import (
    build_clique_cycle,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    intersection_graph,
    is_real,
    parse_model,
    validate_model,
)
from arcroute.generator import _grow_to_cover


def test_ring_is_the_c4_model():
    assert gen_ring(4).arcs == ((0, 3), (2, 5), (4, 7), (6, 1))


def test_ring_three_is_a_triangle():
    graph = intersection_graph(gen_ring(3))
    assert graph.m == 3


def test_ring_edge_counts():
    for k in range(4, 65):
        graph = intersection_graph(gen_ring(k))
        assert graph.m == k
        assert sorted(graph.degrees.tolist()) == [2] * k


def test_ring_adjacency_is_cyclic():
    for k in (5, 9):
        graph = intersection_graph(gen_ring(k))
        for i, j in itertools.combinations(range(k), 2):
            expected = (j - i) % k in (1, k - 1)
            assert graph.adj[i, j] == expected


def test_ring_rejects_small():
    with pytest.raises(ValueError):
        gen_ring(2)


def test_wheel_shape():
    for k in range(3, 10):
        model = gen_wheel(k)
        assert model.n == k + 1
        assert is_real(model)
        graph = intersection_graph(model)
        hub = k
        assert graph.adj[hub, :k].all()
        for i, j in itertools.combinations(range(k), 2):
            assert graph.adj[i, j] == ((j - i) % k in (1, k - 1))


def test_wheel_hub_is_the_only_dominating_vertex():
    for k in range(4, 9):
        dominating = build_clique_cycle(gen_wheel(k)).dominating
        assert np.flatnonzero(dominating).tolist() == [k]


def test_wheel_three_is_complete():
    graph = intersection_graph(gen_wheel(3))
    assert graph.m == 6


def test_complete_models():
    for n in range(2, 12):
        model = gen_complete(n)
        assert is_real(model)
        graph = intersection_graph(model)
        assert graph.m == n * (n - 1) // 2


def test_random_is_deterministic():
    a = gen_random(10, 42)
    b = gen_random(10, 42)
    assert a.to_json() == b.to_json()


def test_random_seeds_differ():
    assert gen_random(10, 1).to_json() != gen_random(10, 2).to_json()


def test_random_models_are_real_and_valid():
    for n in (3, 4, 7, 12, 33):
        for seed in range(40):
            model = gen_random(n, seed)
            assert model.n == n
            assert is_real(model)
            endpoints = [p for arc in model.arcs for p in arc]
            assert sorted(endpoints) == list(range(2 * n))


def test_random_rejects_small():
    with pytest.raises(ValueError):
        gen_random(2, 0)


def test_coverage_repair_grows_to_real():
    # three short arcs leaving every other gap uncovered
    arcs = [(0, 1), (2, 3), (4, 5)]
    repaired = _grow_to_cover(arcs, 3)
    model = validate_model(3, repaired)
    assert is_real(model)


def test_coverage_repair_handles_near_full_arc():
    # one arc covering all but gap 3; flipping another arc finishes it
    arcs = [(4, 3), (0, 1), (5, 2)]
    model = validate_model(3, arcs)
    assert not is_real(model)
    repaired = _grow_to_cover(arcs, 3)
    assert is_real(validate_model(3, repaired))


def test_generated_models_round_trip_canonical_json():
    for model in (gen_ring(6), gen_wheel(4), gen_random(9, 5)):
        assert parse_model(model.to_json()) == model
