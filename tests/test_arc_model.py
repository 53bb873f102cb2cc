import itertools
import random

import numpy as np
import pytest

from arcroute import (
    Graph,
    bfs_distances,
    dominating_vertices,
    first_vertices,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    intersection_graph,
    is_real,
    parse_model,
    validate_model,
)
from arcroute.arc_model import UNREACHABLE, all_pairs_distances
from arcroute.errors import (
    DegenerateArcError,
    DuplicateEndpointError,
    ModelFormatError,
    PositionOutOfRangeError,
    UnreachablePairError,
)
from conftest import (
    C4_MODEL,
    covers_gap,
    load,
    perturbed_ring,
    reference_intersection_graph,
)


def test_parse_single_vertex_model():
    model = parse_model('{"n": 1, "arcs": [[0, 1]]}')
    assert model.n == 1
    assert model.arcs == ((0, 1),)


def test_parse_c4_model():
    model = load(C4_MODEL)
    assert model.n == 4
    assert model.circle_size == 8


def test_parse_duplicate_endpoint():
    with pytest.raises(DuplicateEndpointError):
        parse_model('{"n": 2, "arcs": [[0, 1], [1, 2]]}')


def test_parse_out_of_range():
    with pytest.raises(PositionOutOfRangeError):
        parse_model('{"n": 2, "arcs": [[0, 4], [1, 2]]}')


def test_parse_degenerate_arc():
    with pytest.raises(DegenerateArcError):
        parse_model('{"n": 2, "arcs": [[0, 0], [1, 2]]}')


def test_parse_garbage():
    with pytest.raises(ModelFormatError):
        parse_model("not json")
    with pytest.raises(ModelFormatError):
        parse_model('{"n": 2}')
    with pytest.raises(ModelFormatError):
        parse_model('{"n": 2, "arcs": [[0, 1]]}')


@pytest.mark.parametrize("payload", [
    '{"n": true, "arcs": [[0, 1]]}',
    '{"n": 2, "arcs": [[0, 2], [3, true]]}',
    '{"n": 2, "arcs": [[false, 2], [3, 1]]}',
])
def test_parse_rejects_json_booleans(payload):
    with pytest.raises(ModelFormatError, match="int"):
        parse_model(payload)


# the second "arcs" is C4, the first the counter model; neither may win
REPEATED_KEY_MODEL = ('{"n": 4, "arcs": [[0, 5], [4, 1], [2, 7], [6, 3]], '
                      '"arcs": [[0, 3], [2, 5], [4, 7], [6, 1]]}')


@pytest.mark.parametrize("payload", [
    REPEATED_KEY_MODEL,
    '{"n": 1, "n": 1, "arcs": [[0, 1]]}',
    '{"n": 1, "arcs": [[0, 1]], "note": {"a": 1, "a": 2}}',
])
def test_parse_rejects_repeated_keys(payload):
    with pytest.raises(ModelFormatError, match="^model JSON repeats an object key$"):
        parse_model(payload)


def test_model_json_round_trip():
    model = load(C4_MODEL)
    again = parse_model(model.to_json())
    assert again == model


def test_intersection_graph_c4():
    graph = intersection_graph(load(C4_MODEL))
    assert graph.m == 4
    assert graph.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_intersection_graph_k2():
    graph = intersection_graph(parse_model('{"n": 2, "arcs": [[0, 2], [1, 3]]}'))
    assert graph.edges() == [(0, 1)]


def test_intersection_graph_isolated_pair():
    graph = intersection_graph(parse_model('{"n": 2, "arcs": [[0, 1], [2, 3]]}'))
    assert graph.m == 0


def test_intersection_matches_pairwise_gap_check():
    # geometry/graph agreement, checked arc pair by arc pair
    for model in (load(C4_MODEL),
                  parse_model('{"n": 3, "arcs": [[0, 3], [2, 5], [4, 1]]}'),
                  parse_model('{"n": 4, "arcs": [[0, 5], [4, 1], [2, 7], [6, 3]]}')):
        graph = intersection_graph(model)
        for i, j in itertools.combinations(range(model.n), 2):
            share = any(
                covers_gap(model, i, g) and covers_gap(model, j, g)
                for g in range(model.circle_size)
            )
            assert graph.adjacent(i, j) == share


def test_intersection_graph_matches_the_broadcast_reference():
    # random endpoint permutations, covering the circle or not
    rng = random.Random(14)
    uncovered = 0
    for _ in range(3000):
        n = rng.randint(1, 13)
        ends = rng.sample(range(2 * n), 2 * n)
        model = validate_model(n, list(zip(ends[::2], ends[1::2])))
        expected = reference_intersection_graph(model).adj
        assert (intersection_graph(model).adj == expected).all(), model.to_json()
        uncovered += not is_real(model)
    assert uncovered > 500


def test_is_real_c4():
    assert is_real(load(C4_MODEL))


def test_is_real_uncovered_gap():
    assert not is_real(parse_model('{"n": 2, "arcs": [[0, 1], [2, 3]]}'))


def test_is_real_single_arc():
    # one arc never covers both gaps of a 2-position circle
    assert not is_real(parse_model('{"n": 1, "arcs": [[0, 1]]}'))


def test_real_model_is_connected():
    for payload in (C4_MODEL,
                    {"n": 3, "arcs": [[0, 3], [2, 5], [4, 1]]}):
        model = load(payload)
        assert is_real(model)
        graph = intersection_graph(model)
        assert (bfs_distances(graph, 0) != UNREACHABLE).all()


def test_bfs_c4():
    graph = intersection_graph(load(C4_MODEL))
    assert bfs_distances(graph, 0).tolist() == [0, 1, 2, 1]


def test_bfs_k2():
    graph = Graph.from_edges(2, [(0, 1)])
    assert bfs_distances(graph, 0).tolist() == [0, 1]


def test_bfs_unreachable_sentinel():
    graph = Graph.from_edges(2, [])
    assert bfs_distances(graph, 0).tolist() == [0, UNREACHABLE]


@pytest.mark.parametrize("edge", [(0, -1), (-3, 1), (0, 3), (7, 1)])
def test_from_edges_rejects_ids_outside_the_graph(edge):
    # a negative id used to wrap to the last vertex; one of n or more
    # escaped as numpy's IndexError
    with pytest.raises(ValueError, match="outside 0..2"):
        Graph.from_edges(3, [(0, 1), edge])


@pytest.mark.parametrize("edge", [(True, 2), (0, False), (np.True_, 2), (0.0, 2),
                                  (1.5, 2), (0, "1")])
def test_from_edges_rejects_ids_that_are_not_integers(edge):
    # a boolean id used to act as a numpy mask, so (True, 2) became the
    # self-loop (2, 2); a float id escaped as numpy's IndexError
    with pytest.raises(ValueError, match="not an integer"):
        Graph.from_edges(3, [edge])


def test_from_edges_accepts_numpy_integer_ids():
    graph = Graph.from_edges(3, [(np.int64(0), np.int32(2)), (np.uint8(1), 2)])
    assert graph.edges() == [(0, 2), (1, 2)]


def test_all_pairs_matches_bfs():
    models = [load(C4_MODEL)]
    models += [gen_ring(k) for k in range(3, 14)]
    models += [gen_wheel(k) for k in range(3, 10)]
    models += [gen_complete(n) for n in range(2, 8)]
    models += [gen_random(n, seed) for n in (5, 12, 30, 60) for seed in range(3)]
    models += [perturbed_ring(n, seed) for n in (8, 20, 50) for seed in range(2)]
    graphs = [intersection_graph(model) for model in models]
    # two components and an isolated vertex: rows with UNREACHABLE cells
    graphs.append(Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]))
    unreachable = 0
    for graph in graphs:
        dist = all_pairs_distances(graph)
        assert dist.shape == (graph.n, graph.n) and dist.dtype == np.int64
        for v in range(graph.n):
            assert (dist[v] == bfs_distances(graph, v)).all()
        unreachable += int((dist == UNREACHABLE).sum())
    assert unreachable == 2 * (4 * 2 + 4 * 1 + 2 * 1)


def test_first_vertices_c4():
    graph = intersection_graph(load(C4_MODEL))
    assert first_vertices(graph, 0, 2) == {1, 3}
    assert first_vertices(graph, 0, 1) == {1}


def test_first_vertices_path():
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert first_vertices(graph, 0, 2) == {1}


def test_first_vertices_unreachable():
    graph = Graph.from_edges(2, [])
    with pytest.raises(UnreachablePairError):
        first_vertices(graph, 0, 1)


def test_first_vertices_nonempty_when_reachable():
    graph = intersection_graph(load(C4_MODEL))
    for u, w in itertools.permutations(range(4), 2):
        assert first_vertices(graph, u, w)


def test_dominating_vertices():
    k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
    assert dominating_vertices(k4) == {0, 1, 2, 3}
    c4 = intersection_graph(load(C4_MODEL))
    assert dominating_vertices(c4) == set()
    hub_and_ring = Graph.from_edges(
        7, [(6, i) for i in range(6)] + [(i, (i + 1) % 6) for i in range(6)]
    )
    assert dominating_vertices(hub_and_ring) == {6}
