import pytest

from arcroute import (
    CyclicOrder,
    OracleResult,
    all_pairs_distances,
    gen_complete,
    gen_random,
    gen_ring,
    has_shortest_path_1irs,
    intersection_graph,
)
from arcroute.errors import ConstructionError, OracleLimitError
from arcroute.oracle import _certify_witness
from arcroute.ring_order import RingInterval
from conftest import adjacency, graph_from_edges, ref_ring_sequence


def test_ring_c5_has_single_interval_scheme():
    graph = intersection_graph(gen_ring(5))
    result = has_shortest_path_1irs(graph)
    assert result.exists_1irs
    assert result.witness_order is not None


def test_rings_admit_strict_single_interval_schemes():
    for k in range(3, 8):
        graph = intersection_graph(gen_ring(k))
        assert has_shortest_path_1irs(graph, strict=True).exists_1irs


def test_complete_graphs_admit_single_interval_schemes():
    for n in (3, 4, 6):
        graph = intersection_graph(gen_complete(n))
        assert has_shortest_path_1irs(graph).exists_1irs


def test_witness_is_a_valid_scheme():
    graph = intersection_graph(gen_ring(6))
    result = has_shortest_path_1irs(graph)
    assert result.exists_1irs
    order = CyclicOrder(result.witness_order)
    dist = all_pairs_distances(graph)
    for v in range(graph.n):
        covered = []
        for (src, w), ivl in result.witness_labels.items():
            if src != v:
                continue
            assert adjacency(graph)[v, w]
            stretch = ref_ring_sequence(order, ivl.a, ivl.b)
            for u in stretch:
                if u != v:
                    assert dist[w, u] == dist[v, u] - 1
            covered.extend(stretch)
        assert set(covered) >= set(range(graph.n)) - {v}
        assert len(covered) == len(set(covered))


def test_disconnected_graph_has_no_scheme():
    graph = graph_from_edges(4, [(0, 1), (2, 3)])
    assert not has_shortest_path_1irs(graph).exists_1irs


def test_limit_guard():
    graph = intersection_graph(gen_random(10, 0))
    with pytest.raises(OracleLimitError):
        has_shortest_path_1irs(graph, vertex_limit=9)


def test_result_is_deterministic():
    graph = intersection_graph(gen_random(7, 19))
    a = has_shortest_path_1irs(graph)
    b = has_shortest_path_1irs(graph)
    assert a.exists_1irs == b.exists_1irs
    assert a.witness_order == b.witness_order
    assert a.witness_labels == b.witness_labels


def test_strict_implies_non_strict():
    for seed in range(12):
        graph = intersection_graph(gen_random(6, seed))
        if has_shortest_path_1irs(graph, strict=True).exists_1irs:
            assert has_shortest_path_1irs(graph).exists_1irs


def test_single_vertex_graph():
    graph = graph_from_edges(1, [])
    result = has_shortest_path_1irs(graph)
    assert result.exists_1irs and result.witness_labels == {}
    assert result.witness_order == (0,)


def test_empty_graph_names_no_vertex():
    result = has_shortest_path_1irs(graph_from_edges(0, []))
    assert result == OracleResult(True, (), {})


# a strict 1-interval scheme of C4 (0-1-2-3-0) under the order 0 1 2 3:
# each vertex sends its far vertex clockwise
C4_WITNESS = {(0, 1): (1, 2), (0, 3): (3, 3), (1, 2): (2, 3), (1, 0): (0, 0),
              (2, 3): (3, 0), (2, 1): (1, 1), (3, 0): (0, 1), (3, 2): (2, 2)}


@pytest.mark.parametrize("broken, strict, message", [
    ({(0, 3): (3, 0)}, True, "strict witness covers itself"),
    # 3 is one hop from 0 but two from 1
    ({(0, 1): (3, 1), (0, 3): (2, 2)}, False, "witness labels a non-shortest hop"),
    ({(0, 3): (2, 3)}, False, "witness intervals overlap"),
    ({(0, 1): (1, 1)}, False, "witness misses a destination"),
])
def test_broken_witness_is_rejected(broken, strict, message):
    graph = intersection_graph(gen_ring(4))
    dist = all_pairs_distances(graph)
    labels = {arc: RingInterval(*ends) for arc, ends in C4_WITNESS.items()}
    _certify_witness(graph, dist, (0, 1, 2, 3), labels, True)
    labels.update({arc: RingInterval(*ends) for arc, ends in broken.items()})
    with pytest.raises(ConstructionError, match=message):
        _certify_witness(graph, dist, (0, 1, 2, 3), labels, strict)
