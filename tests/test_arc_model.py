import itertools
import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from arcroute import (
    Graph,
    build_clique_cycle,
    build_scheme,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    intersection_graph,
    is_real,
    parse_model,
    validate_model,
)
from arcroute.arc_model import all_pairs_distances, arc_spans, intersection_edges
from arcroute.errors import (
    DegenerateArcError,
    DuplicateEndpointError,
    ModelFormatError,
    PositionOutOfRangeError,
)
from arcroute.graph import MAX_VERTICES, UNREACHABLE, _frontier_distances
from conftest import (
    C4_MODEL,
    COUNTER_MODEL,
    adjacency,
    covers_gap,
    graph_from_edges,
    graph_from_matrix,
    load,
    perturbed_ring,
    ref_bfs_distances,
    ref_first_vertices,
    reference_intersection_graph,
    src_env,
)


def test_parse_single_vertex_model():
    model = parse_model('{"n": 1, "arcs": [[0, 1]]}')
    assert model.n == 1
    assert model.arcs == ((0, 1),)


def test_parse_c4_model():
    model = load(C4_MODEL)
    assert model.n == 4
    assert model.circle_size == 8


def raises_exactly(error, message):
    """``pytest.raises`` for ``error`` with exactly ``message``."""
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def test_parse_duplicate_endpoint():
    with raises_exactly(DuplicateEndpointError, "position 1 used by arcs 0 and 1"):
        parse_model('{"n": 2, "arcs": [[0, 1], [1, 2]]}')
    with raises_exactly(DuplicateEndpointError, "position 0 used by arcs 0 and 1"):
        parse_model('{"n": 2, "arcs": [[0, 3], [2, 0]]}')


def test_parse_out_of_range():
    with raises_exactly(PositionOutOfRangeError, "arc 0: position 4 outside [0, 4)"):
        parse_model('{"n": 2, "arcs": [[0, 4], [1, 2]]}')
    with raises_exactly(PositionOutOfRangeError, "arc 1: position -1 outside [0, 4)"):
        parse_model('{"n": 2, "arcs": [[0, 1], [-1, 2]]}')


def test_parse_degenerate_arc():
    with raises_exactly(DegenerateArcError, "arc 0: start equals end (0)"):
        parse_model('{"n": 2, "arcs": [[0, 0], [1, 2]]}')


GARBAGE = [
    ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"n": 2}', 'expected an object with keys "n" and "arcs"'),
    ('{"n": 2, "arcs": [[0, 1]]}', "expected 2 arcs, got 1"),
    ('{"n": 2, "arcs": {}}', '"n" must be an int and "arcs" a list'),
    ('{"n": 0, "arcs": []}', "vertex count must be positive, got 0"),
    ('{"n": 2, "arcs": [[0, 2], [3]]}', "arc entry [3] is not a pair of ints"),
    ('{"n": 2, "arcs": [[0, 2], [3, 1, 2]]}',
     "arc entry [3, 1, 2] is not a pair of ints"),
    ('{"n": 2, "arcs": [[0, 2], 5]}', "arc entry 5 is not a pair of ints"),
    ('{"n": 2, "arcs": [[0, 2], [3, 1.0]]}', "arc entry [3, 1.0] is not a pair of ints"),
    ('{"n": 2, "arcs": [[0, 2], ["3", 1]]}', "arc entry ['3', 1] is not a pair of ints"),
]


def test_parse_garbage():
    for payload, message in GARBAGE:
        with raises_exactly(ModelFormatError, message) as info:
            parse_model(payload)
        assert type(info.value) is ModelFormatError


JSON_BOOLEANS = {
    '{"n": true, "arcs": [[0, 1]]}': '"n" must be an int and "arcs" a list',
    '{"n": 2, "arcs": [[0, 2], [3, true]]}': "arc entry [3, True] is not a pair of ints",
    '{"n": 2, "arcs": [[false, 2], [3, 1]]}':
        "arc entry [False, 2] is not a pair of ints",
}


@pytest.mark.parametrize("payload", list(JSON_BOOLEANS))
def test_parse_rejects_json_booleans(payload):
    with raises_exactly(ModelFormatError, JSON_BOOLEANS[payload]):
        parse_model(payload)


@pytest.mark.parametrize("n, arcs", [
    (2, [(0, 1.5), (1, 3)]),  # int() would cut it to (0, 1): two arcs end at 1
    (2.0, [(0, 1), (2, 3)]),  # would give circle_size 4.0
    (2, [(0, 1), (True, 3)]),  # would be read as position 1
    (1, [(np.float64(0), 1)]),
    (np.True_, [(0, 1)]),
])
def test_validate_model_rejects_what_is_not_an_int(n, arcs):
    with pytest.raises(ModelFormatError, match="int") as info:
        validate_model(n, arcs)
    assert type(info.value) is ModelFormatError


@pytest.mark.parametrize("n, arcs, message", [
    (1, [(0,)], "arc 0: (0,) is not a pair of ints"),
    (1, [(0, 1, 2)], "arc 0: (0, 1, 2) is not a pair of ints"),
    (1, [0], "arc 0: 0 is not a pair of ints"),
    (1, None, "arcs must be a list of pairs, got None"),
])
def test_validate_model_rejects_what_is_not_a_pair(n, arcs, message):
    with raises_exactly(ModelFormatError, message) as info:
        validate_model(n, arcs)
    assert type(info.value) is ModelFormatError


def test_validate_model_stores_numpy_integers_as_python_ints():
    model = validate_model(np.int64(2), [(np.int32(0), np.uint8(1)), (2, 3)])
    assert model == validate_model(2, [(0, 1), (2, 3)])
    assert type(model.n) is int and type(model.circle_size) is int
    assert {type(p) for arc in model.arcs for p in arc} == {int}


def test_validate_model_sizes_the_circle_of_a_small_numpy_count():
    # 2 * np.uint8(200) wraps to 144 and 2 * np.int8(100) to -56
    for n in (np.uint8(200), np.int8(100)):
        arcs = [(2 * i, 2 * i + 1) for i in range(int(n))]
        assert validate_model(n, arcs) == validate_model(int(n), arcs)


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


def edges_of(graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, in row order."""
    return [tuple(e) for e in np.argwhere(np.triu(adjacency(graph))).tolist()]


def test_intersection_graph_c4():
    graph = intersection_graph(load(C4_MODEL))
    assert graph.m == 4
    assert edges_of(graph) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_intersection_graph_k2():
    graph = intersection_graph(parse_model('{"n": 2, "arcs": [[0, 2], [1, 3]]}'))
    assert edges_of(graph) == [(0, 1)]


def test_intersection_graph_isolated_pair():
    graph = intersection_graph(parse_model('{"n": 2, "arcs": [[0, 1], [2, 3]]}'))
    assert graph.m == 0


def test_intersection_matches_pairwise_gap_check():
    # geometry/graph agreement, checked arc pair by arc pair
    for model in (load(C4_MODEL),
                  parse_model('{"n": 3, "arcs": [[0, 3], [2, 5], [4, 1]]}'),
                  parse_model('{"n": 4, "arcs": [[0, 5], [4, 1], [2, 7], [6, 3]]}')):
        adj = adjacency(intersection_graph(model))
        for i, j in itertools.combinations(range(model.n), 2):
            share = any(
                covers_gap(model, i, g) and covers_gap(model, j, g)
                for g in range(model.circle_size)
            )
            assert adj[i, j] == share


def test_intersection_graph_matches_the_broadcast_reference():
    # random endpoint permutations, covering the circle or not
    rng = random.Random(14)
    uncovered = 0
    for _ in range(3000):
        n = rng.randint(1, 13)
        ends = rng.sample(range(2 * n), 2 * n)
        model = validate_model(n, list(zip(ends[::2], ends[1::2])))
        expected = reference_intersection_graph(model).keys
        assert np.array_equal(intersection_graph(model).keys, expected), model.to_json()
        uncovered += not is_real(model)
    assert uncovered > 500


def test_intersection_edges_list_each_directed_edge_once():
    models = [gen_ring(k) for k in range(3, 12)] + [gen_wheel(k) for k in range(3, 10)]
    models += [gen_complete(n) for n in range(2, 9)] + [load(COUNTER_MODEL)]
    models += [gen_random(n, seed) for n in (5, 12, 40, 200) for seed in range(5)]
    # random endpoint permutations, covering the circle or not
    rng = random.Random(28)
    for _ in range(1000):
        n = rng.randint(1, 13)
        ends = rng.sample(range(2 * n), 2 * n)
        models.append(validate_model(n, list(zip(ends[::2], ends[1::2]))))
    for model in models:
        (src, tgt), degrees = intersection_edges(*arc_spans(model), model.circle_size)
        assert src.dtype == tgt.dtype == np.int32
        assert np.array_equal(degrees, np.bincount(src, minlength=model.n))
        keys = np.sort(src.astype(np.int64) * model.n + tgt)
        assert (np.diff(keys) > 0).all() and not (src == tgt).any(), model.to_json()
        # row-major, so the pairs of np.nonzero as keys u * n + v
        expected = np.flatnonzero(adjacency(reference_intersection_graph(model)))
        assert np.array_equal(keys, expected), model.to_json()


def test_intersection_graph_memory_stays_linear():
    # the sweep's edge list and its sorted keys take a few int64 words per
    # vertex and per directed edge (33 bytes measured); the n x n boolean
    # matrix a graph once kept was 400 MB alone at this size
    model = perturbed_ring(20000, 1)
    tracemalloc.start()
    try:
        graph = intersection_graph(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * (graph.n + 2 * graph.m)


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
        assert (all_pairs_distances(graph) != UNREACHABLE).all()


def test_every_vertex_of_a_covering_model_has_a_neighbor():
    # the frame pass relies on it: the arc covering the gap just before v's
    # start is not v and cannot end at v's start, so it also covers v's
    # first gap
    models = [validate_model(2, [(0, 3), (2, 1)])]
    models += [gen_ring(k) for k in range(3, 12)]
    models += [gen_wheel(k) for k in range(3, 12)]
    models += [gen_complete(n) for n in range(2, 12)]
    models += [perturbed_ring(n, seed) for n in (8, 16, 40) for seed in range(3)]
    models += [gen_random(n, seed) for n in (3, 5, 30, 200) for seed in range(3)]
    rng = random.Random(25)
    permutations = 0
    while permutations < 2000:
        n = rng.randint(2, 8)
        ends = rng.sample(range(2 * n), 2 * n)
        model = validate_model(n, list(zip(ends[::2], ends[1::2])))
        if is_real(model):
            models.append(model)
            permutations += 1
    for model in models:
        assert is_real(model), model.to_json()
        assert (intersection_graph(model).degrees > 0).all(), model.to_json()
    assert build_scheme(models[0]).order.n == 2


# the BFS rows of the all-pairs matrix, each also checked against the
# one-source reference


def test_bfs_c4():
    graph = intersection_graph(load(C4_MODEL))
    assert all_pairs_distances(graph)[0].tolist() == [0, 1, 2, 1]
    assert ref_bfs_distances(graph, 0).tolist() == [0, 1, 2, 1]


def test_bfs_k2():
    graph = graph_from_edges(2, [(0, 1)])
    assert all_pairs_distances(graph)[0].tolist() == [0, 1]
    assert ref_bfs_distances(graph, 0).tolist() == [0, 1]


def test_bfs_unreachable_sentinel():
    graph = graph_from_edges(2, [])
    assert all_pairs_distances(graph)[0].tolist() == [0, UNREACHABLE]
    assert ref_bfs_distances(graph, 0).tolist() == [0, UNREACHABLE]


# the id checks of the references that tests build graphs and read
# distances with: a wrong id must fail, not wrap to another vertex


@pytest.mark.parametrize("edge", [(0, -1), (-3, 1), (0, 3), (7, 1)])
def test_from_edges_rejects_ids_outside_the_graph(edge):
    # a negative id would wrap to the last vertex; one of n or more
    # would escape as numpy's IndexError
    with pytest.raises(ValueError, match="not an id in 0..2"):
        graph_from_edges(3, [(0, 1), edge])


@pytest.mark.parametrize("edge", [(True, 2), (0, False), (np.True_, 2), (0.0, 2),
                                  (1.5, 2), (0, "1")])
def test_from_edges_rejects_ids_that_are_not_integers(edge):
    # a boolean id would act as a numpy mask, so (True, 2) would become
    # the self-loop (2, 2); a float id would escape as numpy's IndexError
    with pytest.raises(ValueError, match="not an id"):
        graph_from_edges(3, [edge])


def test_from_edges_accepts_numpy_integer_ids():
    graph = graph_from_edges(3, [(np.int64(0), np.int32(2)), (np.uint8(1), 2)])
    assert edges_of(graph) == [(0, 2), (1, 2)]


def asymmetric_adjacency(n, u, v):
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = True
    return adj


@pytest.mark.parametrize("n, adj", [
    (3, asymmetric_adjacency(3, 0, 1)),  # counted as m = 1, read both ways
    (3, ~np.eye(3, dtype=bool) ^ asymmetric_adjacency(3, 2, 0)),
    # the boundaries of the 512 x 512 tiles an n x n check once compared
    (1100, asymmetric_adjacency(1100, 3, 1050)),
    (1100, asymmetric_adjacency(1100, 1050, 3)),
    (1100, asymmetric_adjacency(1100, 600, 601)),
])
def test_graph_rejects_an_asymmetric_adjacency(n, adj):
    with pytest.raises(ValueError, match="symmetric"):
        Graph(n, *np.nonzero(adj))


def test_graph_rejects_a_true_diagonal():
    # all-True made m = 4 on three vertices and no vertex dominating
    with pytest.raises(ValueError, match="self-loops"):
        Graph(3, *np.nonzero(np.ones((3, 3), dtype=bool)))
    with pytest.raises(ValueError, match="self-loops"):
        Graph(3, np.array([1]), np.array([1]))


@pytest.mark.parametrize("src, dst", [
    ([0, 1, 0], [1, 0, 1]),  # both directions listed, one of them twice
    ([0, 1, 0, 1], [1, 0, 1, 0]),
])
def test_graph_rejects_a_repeated_edge(src, dst):
    # a repeat would count twice in m and in the degrees
    with pytest.raises(ValueError, match="an edge is listed twice"):
        Graph(3, np.array(src), np.array(dst))


@pytest.mark.parametrize("n, src, dst", [
    (3, [0, 3], [3, 0]),
    (3, [2, 0], [0, 7]),
    (3, [-1, 0], [0, -1]),  # a key would wrap to another vertex's row
    (1, [0, 1], [1, 0]),
])
def test_graph_rejects_ids_outside_the_graph(n, src, dst):
    with pytest.raises(ValueError, match=rf"^edge ends must be vertex ids in 0\.\.{n - 1}$"):
        Graph(n, np.array(src), np.array(dst))


EDGE_LIST_ERROR = "edges must be two 1-D integer arrays of equal length"
VERTEX_COUNT_ERROR = "vertex count must be an int in 0.."


@pytest.mark.parametrize("n, src, dst, message", [
    (3, np.array([0, 1]), np.array([1]), EDGE_LIST_ERROR),
    (2, np.array([[0], [1]]), np.array([[1], [0]]), EDGE_LIST_ERROR),
    (2, np.array([0, 1]), np.array(1), EDGE_LIST_ERROR),
    # a bool would read as id 0 or 1, a float be cut to an int
    (2, np.array([False, True]), np.array([True, False]), EDGE_LIST_ERROR),
    (2, np.array([0.0, 1.0]), np.array([1.0, 0.0]), EDGE_LIST_ERROR),
    (2, np.array([0, 1]), np.array([1.5, 0.0]), EDGE_LIST_ERROR),
    # uint64 ids have no exact int64 key
    (2, np.array([0, 1], dtype=np.uint64), np.array([1, 0], dtype=np.uint64),
     EDGE_LIST_ERROR),
    (2, [0, 1], [1, 0], EDGE_LIST_ERROR),
    (2.0, np.array([0, 1]), np.array([1, 0]), VERTEX_COUNT_ERROR),
    (True, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
     VERTEX_COUNT_ERROR),
    (-1, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
     VERTEX_COUNT_ERROR),
    # the key u * n + v of an n this large could wrap past int64
    (MAX_VERTICES + 1, np.array([0, 1]), np.array([1, 0]), VERTEX_COUNT_ERROR),
])
def test_graph_rejects_what_is_not_an_edge_list(n, src, dst, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Graph(n, src, dst)


def test_graph_accepts_a_symmetric_adjacency():
    for ids in (np.int64, np.int32, np.uint8):
        graph = Graph(np.int64(3), np.array([2, 0], dtype=ids),
                      np.array([0, 2], dtype=ids))
        assert graph.n == 3 and type(graph.n) is int
        assert graph.m == 1 and edges_of(graph) == [(0, 2)]
        assert graph.keys.tolist() == [2, 6] and graph.keys.dtype == np.int64
        assert graph.indptr.tolist() == [0, 1, 1, 2]
        assert graph.degrees.tolist() == [1, 0, 1]
    empty = np.array([], dtype=np.int64)
    assert Graph(0, empty, empty).m == 0
    assert Graph(3, empty, empty).indptr.tolist() == [0, 0, 0, 0]


def test_graph_arrays_are_read_only():
    # a write once deleted an edge under a verified scheme, which then
    # routed over it, and left degrees and m stale
    src, dst = np.array([0, 1]), np.array([1, 0])
    graph = Graph(2, src, dst)
    src[0] = dst[1] = 1  # the caller's arrays stay its own
    assert graph.keys.tolist() == [1, 2]
    graph = intersection_graph(gen_ring(5))
    for name in ("keys", "indptr", "degrees"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(graph, name)[0] = 0
    assert graph.keys[0] == 1 and graph.indptr[1] == 2
    assert graph.degrees[0] == 2 and graph.m == 5


@pytest.mark.parametrize("v", [-1, 5, True, np.True_, 1.0, "1", None])
def test_graph_readers_reject_vertex_ids_outside_the_graph(v):
    # -1 would read vertex 4's row; True and 1.0 would escape as IndexError
    graph = intersection_graph(gen_ring(5))
    with pytest.raises(ValueError, match=r" is not an id in 0\.\.4"):
        ref_bfs_distances(graph, v)
    with pytest.raises(ValueError, match="is not an id"):
        ref_first_vertices(graph, v, 2)
    with pytest.raises(ValueError, match="is not an id"):
        ref_first_vertices(graph, 0, v)


def test_graph_readers_accept_numpy_integer_ids():
    graph = intersection_graph(gen_ring(5))
    assert (ref_bfs_distances(graph, np.int32(2)).tolist()
            == ref_bfs_distances(graph, 2).tolist())
    assert ref_first_vertices(graph, np.int64(0), np.uint8(2)) == {1}
    assert adjacency(graph)[np.int64(0), np.int8(4)]


def scipy_distances(graph):
    """Hop distances from a direct scipy call, UNREACHABLE across components."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    dist = shortest_path(csr_matrix(adjacency(graph)), unweighted=True, directed=False)
    return np.where(np.isinf(dist), UNREACHABLE, dist).astype(np.int64)


def clique_chain(cliques, size):
    """``cliques`` cliques of ``size`` vertices, the last vertex of each
    joined to the first of the next: dense inside, long end to end."""
    n = cliques * size
    adj = np.zeros((n, n), dtype=bool)
    for c in range(cliques):
        adj[c * size:(c + 1) * size, c * size:(c + 1) * size] = True
        if c:
            adj[c * size - 1, c * size] = adj[c * size, c * size - 1] = True
    np.fill_diagonal(adj, False)
    return graph_from_matrix(adj)


def two_cliques(size):
    return graph_from_edges(2 * size, [
        e for part in (range(size), range(size, 2 * size))
        for e in itertools.combinations(part, 2)])


# name: (graph, whether the frontier finishes it, UNREACHABLE cells)
RULE_CASES = {
    "random-12": (lambda: intersection_graph(gen_random(12, 0)), True, 0),
    "random-60": (lambda: intersection_graph(gen_random(60, 1)), True, 0),
    "random-200": (lambda: intersection_graph(gen_random(200, 2)), True, 0),
    "two-K5": (lambda: two_cliques(5), True, 2 * 5 * 5),
    "n-0": (lambda: graph_from_edges(0, []), True, 0),
    "n-1": (lambda: graph_from_edges(1, []), True, 0),
    "perturbed-ring-300": (lambda: intersection_graph(perturbed_ring(300, 0)),
                           False, 0),
    "clique-chain-10x30": (lambda: clique_chain(10, 30), False, 0),
}


def checked_all_pairs(graph):
    """``all_pairs_distances``, compared with a direct scipy call and with
    the one-source BFS reference from every source."""
    dist = all_pairs_distances(graph)
    assert dist.shape == (graph.n, graph.n) and dist.dtype == np.int64
    assert (dist == scipy_distances(graph)).all()
    for v in range(graph.n):
        assert (dist[v] == ref_bfs_distances(graph, v)).all()
    return dist


@pytest.mark.parametrize("name", list(RULE_CASES))
def test_all_pairs_on_each_side_of_the_cost_rule(name):
    make, frontier, unreachable = RULE_CASES[name]
    graph = make()
    assert (_frontier_distances(graph) is not None) == frontier
    dist = checked_all_pairs(graph)
    assert int((dist == UNREACHABLE).sum()) == unreachable


VERIFY_BRANCHES = """
import sys
from arcroute import (build_scheme, gen_random, gen_wheel, has_shortest_path_1irs,
                      intersection_graph, parse_model, verify_scheme)

def verify(model):
    assert verify_scheme(intersection_graph(model), build_scheme(model)).passed

for seed in range(3):
    verify(gen_random(200, seed))
assert has_shortest_path_1irs(intersection_graph(gen_wheel(5))).exists_1irs
assert "scipy" not in sys.modules, "a dense verify or the oracle loaded scipy"
verify(parse_model(sys.argv[1]))
assert "scipy" in sys.modules, "a long-diameter verify did not hand over to scipy"
"""


def test_dense_verifies_never_load_scipy_and_long_diameters_do():
    # a fresh interpreter shows which branch of the cost rule ran, with no
    # timing: only the hand-over imports scipy
    done = subprocess.run(
        [sys.executable, "-c", VERIFY_BRANCHES, perturbed_ring(300, 0).to_json()],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_all_pairs_memory_stays_near_six_float32_matrices():
    # the int64 result counts as two float32 n-by-n matrices, the float32
    # adjacency and its product as two more; a float64 or another int64
    # n-by-n temporary would exceed the bound.  Diameter 2 stops after one
    # product; the joined cliques (diameter 3) also hold a frontier cast
    # from level 2 while level 3 is multiplied, 5.5 float32 matrices
    joined = adjacency(two_cliques(500))
    joined[499, 500] = joined[500, 499] = True
    for graph in (intersection_graph(gen_random(1000, 0)), graph_from_matrix(joined)):
        tracemalloc.start()
        try:
            all_pairs_distances(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 4 * graph.n ** 2


def test_scipy_hand_over_memory_stays_near_one_int64_matrix():
    # scipy's float64 result becomes the int64 one in place, a block of
    # rows at a time: a full-size mask or a second n-by-n copy would read
    # at least 9 or 16 bytes per vertex pair
    from scipy.sparse.csgraph import shortest_path  # imported before tracing

    graph = intersection_graph(perturbed_ring(2000, 0))
    assert _frontier_distances(graph) is None
    tracemalloc.start()
    try:
        dist = all_pairs_distances(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * graph.n ** 2
    assert dist.dtype == np.int64 and dist.flags.c_contiguous
    assert (dist == shortest_path(adjacency(graph), unweighted=True, directed=False)).all()


def test_all_pairs_matches_bfs():
    models = [load(C4_MODEL)]
    models += [gen_ring(k) for k in range(3, 14)]
    models += [gen_wheel(k) for k in range(3, 10)]
    models += [gen_complete(n) for n in range(2, 8)]
    models += [gen_random(n, seed) for n in (5, 12, 30, 60) for seed in range(3)]
    models += [perturbed_ring(n, seed) for n in (8, 20, 50) for seed in range(2)]
    graphs = [intersection_graph(model) for model in models]
    # two components and an isolated vertex: rows with UNREACHABLE cells
    graphs.append(graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]))
    unreachable = 0
    for graph in graphs:
        unreachable += int((checked_all_pairs(graph) == UNREACHABLE).sum())
    assert unreachable == 2 * (4 * 2 + 4 * 1 + 2 * 1)


def test_first_vertices_c4():
    graph = intersection_graph(load(C4_MODEL))
    assert ref_first_vertices(graph, 0, 2) == {1, 3}
    assert ref_first_vertices(graph, 0, 1) == {1}


def test_first_vertices_path():
    graph = graph_from_edges(3, [(0, 1), (1, 2)])
    assert ref_first_vertices(graph, 0, 2) == {1}


def test_first_vertices_unreachable():
    graph = graph_from_edges(2, [])
    assert ref_first_vertices(graph, 0, 1) == set()


def test_first_vertices_nonempty_when_reachable():
    graph = intersection_graph(load(C4_MODEL))
    for u, w in itertools.permutations(range(4), 2):
        assert ref_first_vertices(graph, u, w)


def test_dominating_vertices():
    # the clique cycle marks the vertices adjacent to every other vertex
    for model, hubs in ((gen_complete(4), [0, 1, 2, 3]), (load(C4_MODEL), []),
                        (gen_wheel(6), [6])):
        dominating = build_clique_cycle(model).dominating
        assert np.flatnonzero(dominating).tolist() == hubs
