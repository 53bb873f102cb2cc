import gc
import itertools
import json
import random
import re
import weakref

import numpy as np
import pytest

from arcroute import (
    CyclicOrder,
    RoutingScheme,
    all_pairs_distances,
    build_scheme,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    intersection_graph,
    interval_stats,
    route,
    verify_scheme,
)
from arcroute.arc_model import validate_model
from arcroute.errors import (
    AmbiguousRouteError,
    CoverageHoleError,
    RoutingLoopError,
    StructuralSchemeError,
)
from arcroute.graph import UNREACHABLE
from arcroute.ring_order import expand_runs
from arcroute.verifier import (
    AMBIGUOUS,
    UNCOVERED,
    IntervalStats,
    VerificationReport,
    _check_structure,
    route_lengths,
)
from conftest import (
    C4_MODEL,
    adjacency,
    graph_from_edges,
    load,
    perturbed_ring,
    ref_check_structure,
)
from test_oracle_agreement import corrupted_variants


def c4_setup():
    model = load(C4_MODEL)
    graph = intersection_graph(model)
    return graph, build_scheme(model)


def scheme_from(order, labels):
    return RoutingScheme.from_json(json.dumps({
        "order": order,
        "labels": {f"{v}->{w}": ivls for (v, w), ivls in labels.items()},
    }))


def test_builder_scheme_passes():
    graph, scheme = c4_setup()
    report = verify_scheme(graph, scheme)
    assert report.passed
    assert report.total_intervals == 8
    assert report.max_intervals_per_arc == 1


def test_rerouted_interval_still_passes():
    # moving a destination to the other shortest-path neighbor stays valid
    graph, _ = c4_setup()
    moved = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 1)], (0, 3): [(2, 2), (3, 3)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    report = verify_scheme(graph, moved)
    assert report.passed, report.to_json()


def test_strictness_violation_reported():
    graph, _ = c4_setup()
    bad = scheme_from([0, 1, 2, 3], {
        (0, 1): [(0, 2)], (0, 3): [(3, 3)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    report = verify_scheme(graph, bad)
    assert not report.passed
    assert not report.strictness_ok
    assert {"vertex": 0, "arc": [0, 1], "interval": [0, 2]} in report.strictness_violations


def test_coverage_hole_reported():
    graph, _ = c4_setup()
    holey = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 1)], (0, 3): [(3, 3)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    report = verify_scheme(graph, holey)
    assert not report.coverage_ok
    assert {"vertex": 0, "destination": 2} in report.coverage_violations


def test_overlap_reported_per_destination():
    graph, _ = c4_setup()
    overlapping = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 2)], (0, 3): [(2, 3)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    report = verify_scheme(graph, overlapping)
    assert not report.disjoint_ok
    assert report.disjoint_violations[0]["destination"] == 2


def test_each_interval_of_a_violation_is_listed():
    # both arcs of vertex 0 cover 0 itself and destination 2
    graph, _ = c4_setup()
    doubly = scheme_from([0, 1, 2, 3], {
        (0, 1): [(0, 2)], (0, 3): [(2, 0)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    report = verify_scheme(graph, doubly)
    assert report.strictness_violations == [
        {"vertex": 0, "arc": [0, 1], "interval": [0, 2]},
        {"vertex": 0, "arc": [0, 3], "interval": [2, 0]},
    ]
    assert report.disjoint_violations == [
        {"vertex": 0, "destination": 2, "arcs": [[0, 1], [0, 3]]},
    ]


def test_non_shortest_assignment_reported():
    graph, _ = c4_setup()
    detour = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 3)], (0, 3): [],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    report = verify_scheme(graph, detour)
    assert not report.shortest_ok
    assert {"vertex": 0, "arc": [0, 1], "destination": 3} in report.shortest_violations


def test_structural_error_on_non_edge_label():
    graph, _ = c4_setup()
    phantom = scheme_from([0, 1, 2, 3], {(0, 2): [(1, 3)]})
    with pytest.raises(StructuralSchemeError):
        verify_scheme(graph, phantom)


def test_structural_error_names_the_first_bad_arc():
    # an arc outside the order fails when the scheme is built, a non-edge
    # when it is checked against the graph; each names the lowest such arc
    order = CyclicOrder([0, 1, 2, 3])
    for arcs, message in [
        ([(2, 0), (1, 1), (3, 9)], "arc (1, 1) is not a valid arc"),
        ([(3, 9), (2, 0)], "arc (3, 9) is not a valid arc"),
        ([(0, 1), (3, -1)], "arc (3, -1) is not a valid arc"),
        ([(1, 1), (0, 9)], "arc (0, 9) is not a valid arc"),
    ]:
        src, dst = zip(*arcs)
        ones = [1] * len(arcs)
        with pytest.raises(StructuralSchemeError, match=re.escape(message)):
            RoutingScheme(order, src, dst, ones, ones)
    graph, _ = c4_setup()
    scheme = RoutingScheme(order, [3, 2, 3], [0, 0, 1], [1, 1, 1], [1, 1, 1])
    with pytest.raises(StructuralSchemeError, match=re.escape(
            "arc (2, 0) is not a graph edge")):
        verify_scheme(graph, scheme)


def test_structural_error_names_the_first_interval_outside_the_order():
    graph, _ = c4_setup()
    order = CyclicOrder([0, 1, 2, 3])
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for starts, lengths, message in [
        ([0, 1, 2, 3], [1, 1, 1, -1], "arc (3, 0) has an interval outside the order"),
        ([0, 1, 7, 3], [1, 9, 1, 1], "arc (1, 2) has an interval outside the order"),
        ([0, -1, 2, 3], [0, 1, 1, 1], "arc (0, 1) has an interval outside the order"),
        ([4, 1, 2, 3], [1, 1, 1, 1], "arc (0, 1) has an interval outside the order"),
        ([0, 1, 7, 3], [1, 1, 1, 1], "arc (2, 3) has an interval outside the order"),
    ]:
        src, dst = zip(*arcs)
        with pytest.raises(StructuralSchemeError, match=re.escape(message)):
            RoutingScheme(order, src, dst, starts, lengths)
    # the whole order is one interval: a strictness failure, not structural
    full = RoutingScheme(order, src, dst, [1, 2, 3, 0], [4, 4, 4, 4])
    assert not verify_scheme(graph, full).strictness_ok


def test_arc_written_without_intervals_is_no_arc():
    # an empty interval list leaves no rows: it is neither counted as an
    # arc nor checked as one, even when it names a non-edge
    graph, scheme = c4_setup()
    obj = json.loads(scheme.to_json())
    obj["labels"]["0->2"] = []
    again = RoutingScheme.from_json(json.dumps(obj))
    assert again.to_json() == scheme.to_json()
    assert verify_scheme(graph, again).passed
    assert interval_stats(again).arc_count == 8
    emptied = scheme_from([0, 1, 2, 3], {
        (0, 1): [], (0, 3): [(1, 3)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    stats = interval_stats(emptied)
    assert (stats.arc_count, stats.edge_count, stats.total_intervals) == (7, 3, 7)
    assert stats.total_within_bound


def structure_cases(rng):
    """(graph, scheme) pairs of built schemes: rows retargeted to a
    non-neighbour, schemes checked against another graph with the same n,
    and against an edgeless graph."""
    models = [gen_random(n, seed) for n in (6, 12, 30, 64) for seed in range(3)]
    models += [gen_ring(9), gen_wheel(8), perturbed_ring(40, 1)]
    for model in models:
        graph, scheme = intersection_graph(model), build_scheme(model)
        adj = adjacency(graph)
        for _ in range(4):
            i = rng.randrange(len(scheme.src))
            v = int(scheme.src[i])
            strangers = np.flatnonzero(~adj[v]).tolist()
            strangers.remove(v)
            if not strangers:
                continue
            dst = scheme.dst.copy()
            dst[i] = rng.choice(strangers)
            yield graph, RoutingScheme(scheme.order, scheme.src, dst,
                                       scheme.start, scheme.length)
        n = model.n
        yield intersection_graph(gen_random(n, rng.randrange(100, 200))), scheme
        yield intersection_graph(gen_ring(n)), scheme
        yield graph_from_edges(n, []), scheme


def test_structure_check_matches_the_boolean_gather_reference():
    # the check merges the scheme's arcs into the graph's sorted keys; the
    # reference gathers every row from the n x n matrix.  Each entry point
    # must raise the reference's exact message, and none where it passes
    rng = random.Random(31)
    failed = 0
    for graph, scheme in structure_cases(rng):
        try:
            ref_check_structure(graph, scheme)
            expected = None
        except StructuralSchemeError as exc:
            expected = str(exc)
        for call in (lambda: verify_scheme(graph, scheme),
                     lambda: route_lengths(scheme, graph),
                     lambda: route(scheme, graph, 0, 1),
                     lambda: _check_structure(graph, scheme)):
            try:
                call()
                got = None
            except StructuralSchemeError as exc:
                got = str(exc)
            except (CoverageHoleError, AmbiguousRouteError, RoutingLoopError):
                got = None  # past the structure check, the scheme fits
            assert got == expected, (graph.n, expected, got)
        failed += expected is not None
    assert failed >= 60


def test_structural_error_on_vertex_mismatch():
    graph, _ = c4_setup()
    small = scheme_from([0, 1, 2], {(0, 1): [(1, 2)]})
    with pytest.raises(StructuralSchemeError):
        verify_scheme(graph, small)


@pytest.mark.parametrize("arrays", [
    ([0, 1], [1], [1, 2], [1, 1]),
    ([[0]], [[1]], [[1]], [[1]]),
    (0, 1, 1, 1),
    ([[0], [1, 2]], [1, 2], [1, 2], [1, 1]),
    (["a"], [1], [1], [1]),
    ([0], [1.9], [1], [1]),
    ([True], [1], [1], [1]),
    ([0], [1], [1], [2 ** 70]),
], ids=["unequal_lengths", "two_dimensional", "scalars", "ragged", "not_numbers",
        "float", "boolean", "too_large"])
def test_scheme_arrays_must_be_flat_and_of_equal_length(arrays):
    # the first two once reached verify_scheme and failed inside numpy
    with pytest.raises(StructuralSchemeError,
                       match="one-dimensional integer arrays of equal length"):
        RoutingScheme(CyclicOrder([0, 1, 2, 3]), *arrays)


def test_scheme_arrays_of_floats_are_not_truncated():
    # dst[0] = 1.9 once loaded as 1, and the scheme passed verification
    _, scheme = c4_setup()
    dst = scheme.dst.astype(float)
    dst[0] += 0.9
    with pytest.raises(StructuralSchemeError, match="integer arrays"):
        RoutingScheme(scheme.order, scheme.src, dst, scheme.start, scheme.length)


def test_empty_scheme_arrays_load():
    # np.asarray([]) is float64, but holds no value to truncate
    scheme = RoutingScheme(CyclicOrder([0, 1, 2, 3]), [], [], [], [])
    assert all(getattr(scheme, a).dtype == np.int64
               for a in ("src", "dst", "start", "length"))
    graph, _ = c4_setup()
    assert verify_scheme(graph, scheme).coverage_violations[0] == {
        "vertex": 0, "destination": 1}


def test_all_failures_enumerated():
    graph, _ = c4_setup()
    # vertex 0 both overlaps on 2 and misses 3
    messy = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 2)], (0, 3): [(2, 2)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    report = verify_scheme(graph, messy)
    assert report.disjoint_violations and report.coverage_violations


def test_rows_sort_by_source_then_target():
    # each arc keeps its intervals in their given order
    scheme = RoutingScheme(CyclicOrder([0, 1, 2]), [2, 0, 1, 0, 0], [0, 2, 0, 1, 2],
                           [1, 1, 2, 2, 0], [1, 1, 1, 1, 1])
    assert scheme.src.tolist() == [0, 0, 0, 1, 2]
    assert scheme.dst.tolist() == [1, 2, 2, 0, 0]
    assert scheme.start.tolist() == [2, 1, 0, 2, 1]


@pytest.mark.parametrize("src,dst,message", [
    ([0, 1], [5, 0], "arc (0, 5) is not a valid arc"),
    ([2 ** 62, 0, 0, -1], [0, 2 ** 62, 3, 7], "arc (-1, 7) is not a valid arc"),
    ([-1], [-1], "arc (-1, -1) is not a valid arc"),
], ids=["past_the_order", "huge_and_negative", "negative_loop"])
def test_ids_outside_the_order_fail_when_the_scheme_is_built(src, dst, message):
    # such rows once sorted pairwise, and the writer remapped their ids
    ones = [1] * len(src)
    with pytest.raises(StructuralSchemeError, match=re.escape(message)):
        RoutingScheme(CyclicOrder([0, 1]), src, dst, [0] * len(src), ones)


@pytest.mark.parametrize("starts,lengths", [
    ([0, 1, 2, -1], [1, 1, 1, 1]),
    ([0, 1, 2, 3], [1, 1, 1, 0]),
    ([0, 1, 2, 9], [1, 1, 1, 1]),
], ids=["start_minus_one", "length_zero", "start_nine"])
def test_intervals_outside_the_order_fail_when_the_scheme_is_built(starts, lengths):
    # these were written as [3, 3], [0, 3] and an IndexError, and the
    # first two read back as start 3 and length 4
    with pytest.raises(StructuralSchemeError, match=re.escape(
            "arc (3, 0) has an interval outside the order")):
        c4_arrays(starts, lengths)


def test_scheme_arrays_are_read_only_copies():
    _, built = c4_setup()
    for name in ("src", "dst", "start", "length"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(built, name)[0] = 0
    src = np.array([0, 1, 2, 3])
    scheme = RoutingScheme(CyclicOrder([0, 1, 2, 3]), src, [1, 2, 3, 0],
                           [1, 2, 3, 0], [1, 1, 1, 1])
    assert src.flags.writeable
    src[0] = 3
    assert scheme.src.tolist() == [0, 1, 2, 3]


def test_route_c4():
    graph, scheme = c4_setup()
    assert route(scheme, graph, 0, 2) == [0, 1, 2]
    assert route(scheme, graph, 0, 1) == [0, 1]


def test_route_matches_distance_for_all_pairs():
    for n, seed in [(10, 2), (18, 31)]:
        model = gen_random(n, seed)
        graph = intersection_graph(model)
        scheme = build_scheme(model)
        dist = all_pairs_distances(graph)
        for u, w in itertools.permutations(range(n), 2):
            assert len(route(scheme, graph, u, w)) - 1 == dist[u, w]


def test_route_lengths_matrix_agrees_with_route():
    for n, seed in [(9, 4), (14, 8)]:
        model = gen_random(n, seed)
        graph = intersection_graph(model)
        scheme = build_scheme(model)
        lengths = route_lengths(scheme, graph)
        for u, w in itertools.permutations(range(n), 2):
            assert lengths[u, w] == len(route(scheme, graph, u, w)) - 1


def test_route_detects_coverage_hole():
    graph, _ = c4_setup()
    holey = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 1)], (0, 3): [(3, 3)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    with pytest.raises(CoverageHoleError):
        route(holey, graph, 0, 2)
    with pytest.raises(CoverageHoleError, match=re.escape(
            "no interval covers 2 along the route from 0")):
        route_lengths(holey, graph)


def test_route_detects_ambiguity():
    graph, _ = c4_setup()
    overlapping = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 2)], (0, 3): [(2, 3)],
        (1, 0): [(0, 0)], (1, 2): [(2, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    with pytest.raises(AmbiguousRouteError):
        route(overlapping, graph, 0, 2)
    with pytest.raises(AmbiguousRouteError, match=re.escape(
            "overlapping intervals for 2 along the route from 0")):
        route_lengths(overlapping, graph)


def test_route_detects_loop():
    graph, _ = c4_setup()
    loopy = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 2)], (0, 3): [(3, 3)],
        (1, 0): [(2, 0)], (1, 2): [(3, 3)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    with pytest.raises(RoutingLoopError):
        route(loopy, graph, 0, 2)
    # vertex 1 also covers 3 twice: the all-pairs check sees that first
    with pytest.raises(AmbiguousRouteError, match=re.escape(
            "overlapping intervals for 3 along the route from 1")):
        route_lengths(loopy, graph)


def hop_by_hop_route_lengths(scheme, graph):
    """route_lengths as it was before pointer doubling: one forwarding
    table per source, every route advanced one hop per step."""
    _check_structure(graph, scheme)
    n = graph.n
    tables = np.full((n, n), UNCOVERED, dtype=np.int64)
    for v in range(n):
        rows = scheme.src == v
        run, positions = expand_runs(scheme.start[rows], scheme.length[rows], n)
        tables[v, positions] = scheme.dst[rows][run]
        tables[v, np.bincount(positions, minlength=n) > 1] = AMBIGUOUS
    items = scheme.order.items
    cur = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, n))
    lengths = np.zeros((n, n), dtype=np.int64)
    active = cur != items[None, :]
    for _ in range(n):
        if not active.any():
            break
        rows, cols = np.nonzero(active)
        nxt = tables[cur[rows, cols], cols]
        if (nxt == UNCOVERED).any():
            u, p = rows[nxt == UNCOVERED][0], cols[nxt == UNCOVERED][0]
            raise CoverageHoleError(
                f"no interval covers {int(items[p])} along the route from {int(u)}"
            )
        if (nxt == AMBIGUOUS).any():
            u, p = rows[nxt == AMBIGUOUS][0], cols[nxt == AMBIGUOUS][0]
            raise AmbiguousRouteError(
                f"overlapping intervals for {int(items[p])} along the route from {int(u)}"
            )
        cur[rows, cols] = nxt
        lengths[rows, cols] += 1
        active = cur != items[None, :]
    if active.any():
        raise RoutingLoopError(f"undelivered routes after {n} hops")
    out = np.empty((n, n), dtype=np.int64)
    out[:, items] = lengths
    return out


def routing_outcome(lengths_of, scheme, graph):
    try:
        return lengths_of(scheme, graph).tolist()
    except (CoverageHoleError, AmbiguousRouteError, RoutingLoopError) as exc:
        return type(exc).__name__, str(exc)


def corrupt_one_row(scheme, graph, rng):
    """Retarget one interval to another neighbour, shift its start, or
    change its length; the scheme still fits the graph."""
    n = scheme.n
    src, dst, start, length = (
        a.copy() for a in (scheme.src, scheme.dst, scheme.start, scheme.length))
    i = rng.randrange(len(src))
    kind = rng.randrange(3)
    if kind == 0:
        others = [w for w in np.flatnonzero(adjacency(graph)[src[i]]).tolist()
                  if w != dst[i]]
        dst[i] = rng.choice(others or [int(dst[i])])
    elif kind == 1:
        start[i] = (start[i] + rng.randrange(1, n)) % n
    else:
        length[i] = rng.randrange(1, n + 1)
    return RoutingScheme(scheme.order, src, dst, start, length)


def test_route_lengths_matches_the_hop_by_hop_reference():
    models = [gen_random(n, seed) for n in range(3, 16) for seed in range(16)]
    models += [gen_ring(k) for k in range(3, 13)]
    models += [gen_wheel(k) for k in range(3, 10)]
    models += [perturbed_ring(n, seed) for n in (8, 16, 30) for seed in range(5)]
    outcomes = {}
    for index, model in enumerate(models):
        graph = intersection_graph(model)
        built = build_scheme(model)
        rng = random.Random(index)
        for scheme in [built] + [corrupt_one_row(built, graph, rng) for _ in range(4)]:
            got = routing_outcome(route_lengths, scheme, graph)
            assert got == routing_outcome(hop_by_hop_route_lengths, scheme, graph)
            kind = got[0] if isinstance(got, tuple) else "delivered"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert sum(outcomes.values()) >= 1000
    assert set(outcomes) == {"delivered", "CoverageHoleError",
                             "AmbiguousRouteError", "RoutingLoopError"}


def test_route_lengths_names_the_first_hole_in_source_order():
    # 0 misses 3 and 1 misses 2: source order names (0, 3), although
    # position 2 comes first
    graph, _ = c4_setup()
    holey = scheme_from([0, 1, 2, 3], {
        (0, 1): [(1, 2)], (1, 0): [(3, 0)],
        (2, 1): [(1, 1)], (2, 3): [(3, 0)],
        (3, 0): [(0, 1)], (3, 2): [(2, 2)],
    })
    message = re.escape("no interval covers 3 along the route from 0")
    with pytest.raises(CoverageHoleError, match=message):
        route_lengths(holey, graph)
    with pytest.raises(CoverageHoleError, match=message):
        hop_by_hop_route_lengths(holey, graph)


# C4 with vertex 1 sending 2 back to 0: routes to 2 from 0 and 1 circle
TWO_CYCLE_LABELS = {(0, 1): [(1, 2)], (0, 3): [(3, 3)],
                    (1, 0): [(2, 0)],
                    (2, 1): [(1, 1)], (2, 3): [(3, 0)],
                    (3, 0): [(0, 1)], (3, 2): [(2, 2)]}
# K4 with routes to 3 circling 0 -> 1 -> 2 -> 0
THREE_CYCLE_LABELS = {(0, 1): [(1, 1), (3, 3)], (0, 2): [(2, 2)],
                      (1, 0): [(0, 0)], (1, 2): [(2, 3)],
                      (2, 0): [(3, 0)], (2, 1): [(1, 1)],
                      (3, 0): [(0, 0)], (3, 1): [(1, 1)], (3, 2): [(2, 2)]}


@pytest.mark.parametrize("graph_of,labels", [
    (lambda: c4_setup()[0], TWO_CYCLE_LABELS),
    (lambda: intersection_graph(gen_complete(4)), THREE_CYCLE_LABELS),
], ids=["two_cycle", "three_cycle"])
def test_route_lengths_detects_loops_of_any_length(graph_of, labels):
    # a 2-cycle is a fixed point of every doubled jump, a 3-cycle of none
    graph = graph_of()
    scheme = scheme_from([0, 1, 2, 3], labels)
    message = re.escape("undelivered routes after 4 hops")
    with pytest.raises(RoutingLoopError, match=message):
        route_lengths(scheme, graph)
    with pytest.raises(RoutingLoopError, match=message):
        hop_by_hop_route_lengths(scheme, graph)
    with pytest.raises(RoutingLoopError):
        route(scheme, graph, 0, 2 if labels is TWO_CYCLE_LABELS else 3)


def test_route_lengths_on_one_and_two_vertices():
    one = intersection_graph(validate_model(1, [(0, 1)]))
    empty = RoutingScheme(CyclicOrder([0]), [], [], [], [])
    assert route_lengths(empty, one).tolist() == [[0]]
    k2 = gen_complete(2)
    assert route_lengths(build_scheme(k2), intersection_graph(k2)).tolist() == [
        [0, 1], [1, 0]]


@pytest.mark.parametrize("k", [255, 256, 257])
def test_ring_route_lengths_at_the_round_count_boundary(k):
    model = gen_ring(k)
    lengths = route_lengths(build_scheme(model), intersection_graph(model))
    gap = np.abs(np.arange(k)[:, None] - np.arange(k)[None, :])
    assert (lengths == np.minimum(gap, k - gap)).all()


def test_route_rejects_equal_endpoints():
    graph, scheme = c4_setup()
    with pytest.raises(ValueError):
        route(scheme, graph, 1, 1)


def ring6_setup():
    model = gen_ring(6)
    return intersection_graph(model), build_scheme(model)


@pytest.mark.parametrize("bad", [-1, 6, 1.0, True, np.float64(1), np.bool_(True)],
                         ids=["minus_one", "n", "float", "bool", "np_float", "np_bool"])
def test_route_rejects_endpoints_that_are_not_vertex_ids(bad):
    # a float source used to escape as IndexError and a bool one as
    # TypeError; a bad target was caught only by the order's own reader
    graph, scheme = ring6_setup()
    for src, dst in ((bad, 3), (3, bad)):
        with pytest.raises(StructuralSchemeError,
                           match="^route endpoints outside the graph$"):
            route(scheme, graph, src, dst)


def test_route_takes_numpy_integer_endpoints_and_returns_python_ints():
    graph, scheme = ring6_setup()
    path = route(scheme, graph, np.int64(0), np.int32(3))
    assert path == route(scheme, graph, 0, 3)
    assert len(path) == 4 and {type(v) for v in path} == {int}


# the C4 scheme whose arc (0, 2) is no graph edge: route 0 -> 2 would
# take it in one hop
PHANTOM_LABELS = {(0, 2): [(1, 3)], (1, 0): [(2, 0)],
                  (2, 1): [(3, 1)], (3, 0): [(0, 2)]}


def c4_arrays(starts, lengths):
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    src, dst = zip(*arcs)
    return RoutingScheme(CyclicOrder([0, 1, 2, 3]), src, dst, starts, lengths)


@pytest.mark.parametrize("make,source", [
    (lambda: scheme_from([0, 1, 2, 3], PHANTOM_LABELS), 0),
    (lambda: scheme_from([0, 1, 2], {(0, 1): [(1, 2)]}), 0),
], ids=["non_edge", "small_order"])
def test_route_and_route_lengths_reject_what_verify_rejects(make, source):
    graph, _ = c4_setup()
    scheme = make()
    with pytest.raises(StructuralSchemeError) as verified:
        verify_scheme(graph, scheme)
    message = re.escape(str(verified.value))
    with pytest.raises(StructuralSchemeError, match=message):
        route_lengths(make(), graph)
    with pytest.raises(StructuralSchemeError, match=message):
        route(make(), graph, source, (source + 1) % 3)


def test_a_scheme_is_checked_once_per_graph(monkeypatch):
    import arcroute.verifier

    graph, _ = c4_setup()
    phantom = scheme_from([0, 1, 2, 3], PHANTOM_LABELS)
    # the route 1 -> 0 never visits vertex 0, whose arc (0, 2) is no edge
    with pytest.raises(StructuralSchemeError, match=re.escape(
            "arc (0, 2) is not a graph edge")):
        route(phantom, graph, 1, 0)
    calls = []
    real = arcroute.verifier._check_structure
    monkeypatch.setattr(arcroute.verifier, "_check_structure",
                        lambda g, s: calls.append(g) or real(g, s))
    _, scheme = c4_setup()
    assert verify_scheme(graph, scheme).passed
    route_lengths(scheme, graph)
    route(scheme, graph, 0, 2)
    route(scheme, graph, 3, 1)
    assert calls == [graph]
    same_edges = intersection_graph(load(C4_MODEL))
    route(scheme, same_edges, 0, 2)
    assert calls == [graph, same_edges]
    # the verifier's cache holds a scheme weakly: its tables go with it
    tables = arcroute.verifier._ROUTE_TABLES
    assert set(tables[scheme]) == {graph, same_edges}
    alive = weakref.ref(scheme)
    del scheme
    gc.collect()
    assert alive() is None


def test_route_checks_a_cached_scheme_against_each_graph():
    k4 = gen_complete(4)
    scheme = build_scheme(k4)
    assert route(scheme, intersection_graph(k4), 0, 2) == [0, 2]
    c4_graph, _ = c4_setup()
    with pytest.raises(StructuralSchemeError, match=re.escape(
            "arc (0, 2) is not a graph edge")):
        route(scheme, c4_graph, 0, 2)


def test_interval_stats_c4():
    _, scheme = c4_setup()
    stats = interval_stats(scheme)
    assert stats.total_intervals == 8
    assert stats.max_intervals_per_arc == 1
    assert stats.double_labeled_arcs_per_vertex == {}
    assert stats.total_within_bound and stats.per_arc_within_bound


def test_interval_stats_k4():
    scheme = build_scheme(gen_complete(4))
    stats = interval_stats(scheme)
    assert stats.total_intervals == 12  # one singleton per directed arc
    assert stats.max_intervals_per_arc == 1


def test_interval_stats_bound_fields():
    model = gen_random(20, 3)
    graph = intersection_graph(model)
    scheme = build_scheme(model)
    stats = interval_stats(scheme)
    assert stats.arc_count == 2 * graph.m
    assert stats.total_intervals <= 2 * graph.m + 20
    assert stats.doubles_within_bound


def test_interval_stats_count_arcs_apart():
    # arcs were once grouped on src * n + dst, which on two vertices made
    # (0, 5) and (1, 3) one arc; now no such scheme is built
    with pytest.raises(StructuralSchemeError, match=re.escape(
            "arc (0, 5) is not a valid arc")):
        RoutingScheme(CyclicOrder([0, 1]), [0, 1], [5, 3], [1, 0], [1, 1])
    stats = interval_stats(RoutingScheme(
        CyclicOrder([0, 1, 2]), [2, 2, 1, 1, 0], [0, 0, 0, 2, 1],
        [0, 1, 0, 0, 1], [1, 1, 1, 1, 1]))
    assert (stats.arc_count, stats.max_intervals_per_arc) == (4, 2)
    assert stats.double_labeled_arcs_per_vertex == {2: 1}
    assert json.loads(stats.to_json())["double_labeled_arcs_per_vertex"] == {"2": 1}


def reference_interval_stats(scheme):
    """The stats as counted when arcs were grouped on src * n + dst, which
    is exact while every id lies in 0 .. n - 1."""
    n = scheme.n
    arcs, per_arc = np.unique(scheme.src * n + scheme.dst, return_counts=True)
    doubles = np.bincount(arcs[per_arc >= 2] // n, minlength=n)
    return IntervalStats(
        total_intervals=len(scheme.src),
        max_intervals_per_arc=int(per_arc.max(initial=0)),
        double_labeled_arcs_per_vertex={
            v: int(doubles[v]) for v in np.flatnonzero(doubles).tolist()},
        arc_count=len(arcs),
        vertex_count=n,
    )


def test_interval_stats_of_built_schemes_are_unchanged():
    doubled = 0
    for graph, scheme in verify_corpus():
        stats = interval_stats(scheme)
        assert stats == reference_interval_stats(scheme)
        assert stats.to_json() == reference_interval_stats(scheme).to_json()
        doubled += bool(stats.double_labeled_arcs_per_vertex)
    assert doubled >= 100, doubled


def test_report_json_shape():
    graph, scheme = c4_setup()
    payload = json.loads(verify_scheme(graph, scheme).to_json())
    assert list(payload)[:6] == [
        "passed", "strictness_ok", "disjoint_ok", "coverage_ok",
        "shortest_ok", "total_intervals",
    ]
    assert payload["passed"] is True


def test_report_verdicts_are_read_from_its_violations():
    detour = {"vertex": 0, "arc": [0, 1], "destination": 3}
    report = VerificationReport(shortest_violations=[detour])
    assert report.shortest_ok is False
    assert report.passed is False
    assert report.strictness_ok and report.disjoint_ok and report.coverage_ok
    assert VerificationReport().passed is True


# Reference: verify_scheme as it was before the bulk pass, one expansion
# and one bincount per vertex.


def _reference_verify_vertex(dist, items, scheme, v, lo, hi, report):
    n = len(items)
    ws = scheme.dst[lo:hi]
    starts, lengths = scheme.start[lo:hi], scheme.length[lo:hi]
    run, positions = expand_runs(starts, lengths, n)
    flat_w = ws[run]
    dests = items[positions]
    counts = np.bincount(dests, minlength=n)
    bad = dist[flat_w, dests] != dist[v, dests] - 1
    for w, u in zip(flat_w[bad].tolist(), dests[bad].tolist()):
        report.shortest_violations.append(
            {"vertex": v, "arc": [v, w], "destination": u}
        )
    if counts[v] > 0:
        for i in np.unique(run[dests == v]).tolist():
            ends = items[[starts[i], (starts[i] + lengths[i] - 1) % n]]
            report.strictness_violations.append(
                {"vertex": v, "arc": [v, int(ws[i])], "interval": ends.tolist()}
            )
        counts[v] = 0  # do not double-report as a disjointness issue
    for u in np.flatnonzero(counts > 1).tolist():
        report.disjoint_violations.append(
            {"vertex": v, "destination": u,
             "arcs": [[v, w] for w in flat_w[dests == u].tolist()]}
        )
    for u in np.flatnonzero(counts == 0).tolist():
        if u != v:
            report.coverage_violations.append({"vertex": v, "destination": u})


def reference_verify_scheme(graph, scheme):
    _check_structure(graph, scheme)
    dist = all_pairs_distances(graph)
    report = VerificationReport()
    items = scheme.order.items
    bounds = np.searchsorted(scheme.src, np.arange(graph.n + 1)).tolist()
    for v in range(graph.n):
        _reference_verify_vertex(dist, items, scheme, v, bounds[v], bounds[v + 1],
                                 report)
    stats = interval_stats(scheme)
    report.total_intervals = stats.total_intervals
    report.max_intervals_per_arc = stats.max_intervals_per_arc
    report.double_labeled_arcs_per_vertex = stats.double_labeled_arcs_per_vertex
    return report


def random_scheme(graph, rng):
    """Zero to two random intervals on every arc of the graph, under a
    random order: any mix of violations, and holes on isolated vertices."""
    items = list(range(graph.n))
    rng.shuffle(items)
    labels = {}
    adj = adjacency(graph)
    for v, w in itertools.permutations(range(graph.n), 2):
        if adj[v, w]:
            labels[(v, w)] = [[rng.choice(items), rng.choice(items)]
                              for _ in range(rng.randrange(3))]
    return scheme_from(items, labels)


# vertex 0 of C4 breaks every constraint: its arc (0, 1) holds 0 itself
# and detours to 3, its arc (0, 3) overlaps (0, 1) on 1, and nothing
# covers 2; the other vertices route as the built scheme does
ALL_BROKEN_AT_0 = {(0, 1): [(3, 1)], (0, 3): [(1, 1)],
                   (1, 0): [(0, 0)], (1, 2): [(2, 3)],
                   (2, 1): [(1, 1)], (2, 3): [(3, 0)],
                   (3, 0): [(0, 1)], (3, 2): [(2, 2)]}


def verify_corpus():
    """(graph, scheme) pairs: built schemes, corrupted ones, hand-built C4
    schemes and random schemes on disconnected graphs."""
    models = [gen_ring(k) for k in range(3, 11)]
    models += [gen_wheel(k) for k in range(3, 9)]
    models += [gen_complete(n) for n in range(2, 8)]
    models += [gen_random(n, seed) for n in range(3, 15) for seed in range(6)]
    models += [perturbed_ring(n, seed) for n in (8, 16, 30) for seed in range(3)]
    rng = random.Random(15)
    for index, model in enumerate(models):
        graph = intersection_graph(model)
        built = build_scheme(model)
        yield graph, built
        yield graph, corrupt_one_row(built, graph, rng)
        if index % 4 == 0:
            for variant in corrupted_variants(built, graph, rng, 6):
                yield graph, variant
    c4 = intersection_graph(load(C4_MODEL))
    yield c4, scheme_from([0, 1, 2, 3], ALL_BROKEN_AT_0)
    yield c4, scheme_from([0, 1, 2, 3], {**ALL_BROKEN_AT_0, (0, 1): [(3, 1), (2, 0)]})
    yield c4, scheme_from([0, 1, 2, 3], {**ALL_BROKEN_AT_0, (0, 1): []})
    yield c4, scheme_from([2, 0, 3, 1], {(0, 1): [(1, 1)], (1, 2): [(2, 0)]})
    yield c4, RoutingScheme(CyclicOrder([0, 1, 2, 3]), [], [], [], [])
    for n, edges in [(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),
                     (5, [(0, 1), (1, 2), (3, 4)]),
                     (4, [(0, 1), (1, 2)]),
                     (1, [])]:
        graph = graph_from_edges(n, edges)
        for _ in range(12):
            yield graph, random_scheme(graph, rng)


def test_bulk_verify_matches_the_per_vertex_reference():
    schemes = 0
    kinds = {"passed": 0, "strictness": 0, "disjoint": 0, "coverage": 0,
             "shortest": 0, "unreachable": 0}
    for graph, scheme in verify_corpus():
        report = verify_scheme(graph, scheme)
        assert report.to_json() == reference_verify_scheme(graph, scheme).to_json()
        schemes += 1
        kinds["passed"] += report.passed
        for kind in ("strictness", "disjoint", "coverage", "shortest"):
            kinds[kind] += bool(getattr(report, f"{kind}_violations"))
        dist = all_pairs_distances(graph)
        kinds["unreachable"] += any(dist[f["vertex"], f["destination"]] == UNREACHABLE
                                    for f in report.shortest_violations)
    assert schemes >= 400
    assert min(kinds.values()) > 0, kinds
