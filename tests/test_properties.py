"""Cross-cutting randomized properties tying the halves together."""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arcroute import (
    RoutingScheme,
    all_pairs_distances,
    build_clique_cycle,
    build_scheme,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    has_shortest_path_1irs,
    intersection_graph,
    interval_stats,
    verify_scheme,
)
from arcroute.errors import StructuralSchemeError
from arcroute.verifier import route_lengths
from conftest import (
    context_for,
    covering_models,
    facing_case,
    graph_from_edges,
    labels_of,
    perturbed_ring,
    ref_first_vertices,
    ref_ring_sequence,
    ref_validate_cycle,
)

model_params = st.tuples(
    st.integers(min_value=3, max_value=24),
    st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model_params)
def test_every_random_model_builds_a_valid_scheme(params):
    n, seed = params
    model = gen_random(n, seed)
    graph = intersection_graph(model)
    scheme = build_scheme(model)
    report = verify_scheme(graph, scheme)
    assert report.passed, report.to_json()
    assert (route_lengths(scheme, graph) == all_pairs_distances(graph)).all()
    stats = interval_stats(scheme)
    assert stats.total_within_bound
    assert stats.per_arc_within_bound
    assert stats.doubles_within_bound
    assert stats.arc_count == 2 * graph.m


@pytest.mark.parametrize("model", [
    gen_ring(9), gen_wheel(7), gen_complete(6), perturbed_ring(40, 3),
], ids=["ring", "wheel", "complete", "perturbed-ring"])
def test_every_graph_arc_of_a_passing_scheme_carries_an_interval(model):
    # the only shortest path from v to a neighbour w is the edge itself,
    # so the interval count per arc cannot hide an edge from the stats
    graph = intersection_graph(model)
    scheme = build_scheme(model)
    assert verify_scheme(graph, scheme).passed
    assert interval_stats(scheme).arc_count == 2 * graph.m


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.tuples(st.integers(min_value=3, max_value=7),
                 st.integers(min_value=0, max_value=5_000)))
def test_single_interval_outputs_are_confirmed_by_search(params):
    # one-directional consistency on arbitrary tiny models, not just the
    # structured families
    n, seed = params
    model = gen_random(n, seed)
    graph = intersection_graph(model)
    scheme = build_scheme(model)
    if interval_stats(scheme).max_intervals_per_arc == 1:
        assert has_shortest_path_1irs(graph).exists_1irs


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model_params)
def test_every_interval_member_routes_through_its_arc(params):
    # constraint on the labels themselves, independent of simulation:
    # each labeled destination must see the arc target as a first vertex
    n, seed = params
    model = gen_random(min(n, 12), seed)
    graph = intersection_graph(model)
    scheme = build_scheme(model)
    for (v, w), ivls in labels_of(scheme).items():
        for a, b in ivls:
            for u in ref_ring_sequence(scheme.order, a, b):
                assert w == u or w in ref_first_vertices(graph, v, int(u))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model_params)
def test_clique_cycle_invariants_hold(params):
    n, seed = params
    model = gen_random(min(n, 16), seed)
    cycle = build_clique_cycle(model)
    ref_validate_cycle(cycle, model)


# sha256 over the scheme JSON of every class below, in class order,
# recorded before the build's numpy calls were cut; it holds every builder
# case on small models byte for byte, counter pairs, cuts and dominating
# runs included
SMALL_CLASSES = {3: 8, 4: 88, 5: 1256}
SMALL_DIGEST = "c46d46bb8436f09c8b77ed4890ef0970d8a7fff41c0bd04b5b1eab4111243b53"


def test_every_small_covering_model_builds_a_verified_scheme():
    digest = hashlib.sha256()
    for n, count in SMALL_CLASSES.items():
        models = covering_models(n)
        assert len(models) == count
        for model in models:
            scheme = build_scheme(model)
            report = verify_scheme(intersection_graph(model), scheme)
            assert report.passed, model.to_json()
            stats = interval_stats(scheme)
            assert stats.total_within_bound and stats.per_arc_within_bound
            assert stats.doubles_within_bound, model.to_json()
            digest.update(scheme.to_json().encode())
    assert digest.hexdigest() == SMALL_DIGEST


def facing_cases(model) -> Counter:
    """How many of the model's vertices take each facing-block case."""
    ctx = context_for(model)
    return Counter(facing_case(ctx, v) for v in np.flatnonzero(ctx.lo < ctx.hi))


# per n: the classes with at least one vertex in a case, the vertices in
# it, and the classes where no vertex has a facing block.  No class up to
# n = 5 reaches the counter split ("near counter pair"): each with a
# counter pair also has a dominating vertex.  ``frame_corpus`` in
# test_builder.py holds models that do, and gen_random(n, s) for s < 200
# reaches it in 1 model at n = 6 and n = 8 and in 4 at n = 9 and n = 10
SMALL_CASES = {
    3: ({"dominating members": 1, "shared neighbor": 1},
        {"dominating members": 1, "shared neighbor": 1}, 7),
    4: ({"dominating members": 35, "shared neighbor": 35, "cut": 1, "separator": 1},
        {"dominating members": 38, "shared neighbor": 42, "cut": 4, "separator": 4},
        51),
    5: ({"dominating members": 752, "shared neighbor": 752, "cut": 12,
         "separator": 11},
        {"dominating members": 912, "shared neighbor": 1192, "cut": 60,
         "separator": 51}, 481),
}


@pytest.mark.parametrize("n", SMALL_CASES)
def test_small_covering_models_take_the_pinned_facing_cases(n):
    classes, vertices, no_facing = Counter(), Counter(), 0
    for model in covering_models(n):
        cases = facing_cases(model)
        classes.update(cases.keys())
        vertices.update(cases)
        no_facing += not cases
    assert (classes, vertices, no_facing) == SMALL_CASES[n]


@pytest.mark.parametrize("model,cases", [
    (gen_ring(8), {"separator": 8}),
    (perturbed_ring(40, 1), {"separator": 40}),
    (gen_wheel(6), {"dominating members": 3, "shared neighbor": 3}),
    (gen_random(8, 118), {"near counter pair": 4, "shared neighbor": 2}),
    (gen_random(8, 22), {"cut": 8}),
    (gen_complete(5), {}),
], ids=["ring-8", "perturbed-ring-40-1", "wheel-6", "random-8-118",
        "random-8-22", "complete-5"])
def test_named_models_take_the_pinned_facing_cases(model, cases):
    assert facing_cases(model) == cases


# the message of every malformed payload, as the reader worded it when it
# parsed all of them through json.loads
BAD_KEY = "bad labels entry '{}'"
PAIRS = "bad labels entry '{}': intervals must be pairs of integers"
INVALID = "invalid scheme JSON: "
NEEDS = 'scheme needs "order" and "labels"'
NOT_IDS = '"order" must be a list of integers'
REPEATS = "scheme JSON repeats an object key"
OUTSIDE = "vertex id outside the order"
ONE_TWO = '{"order": [0, 1, 2], "labels": {%s}}'


def test_scheme_json_rejects_malformed_payloads():
    good = build_scheme(gen_random(5, 3)).to_json()
    obj = json.loads(good)
    broken = [
        ("not json", INVALID + "Expecting value: line 1 column 1 (char 0)"),
        ("[]", NEEDS),
        ('{"order": [0, 1, 2]}', NEEDS),
        (json.dumps({"order": [0, 1, 1, 2, 3], "labels": obj["labels"]}),
         "items must be a permutation of 0..4"),
        (json.dumps({"order": obj["order"], "labels": {"0-1": [[1, 2]]}}),
         BAD_KEY.format("0-1")),
        (json.dumps({"order": obj["order"], "labels": {"0->x": [[1, 2]]}}),
         BAD_KEY.format("0->x")),
        (json.dumps({"order": obj["order"], "labels": {"0->1": [[1, 99]]}}),
         "interval [1, 99] outside the order"),
        (json.dumps({"order": obj["order"], "labels": {"0->1": [[1]]}}),
         PAIRS.format("0->1")),
        # non-integer values must not be truncated by int()
        (json.dumps({"order": [0, 1.9, 2],
                     "labels": {"0->1": [[True, 1.5]], "0->2": [[2, 2]]}}), NOT_IDS),
        (json.dumps({"order": [0, True, 2], "labels": {}}), NOT_IDS),
        (ONE_TWO % '"0->1": [[true, true]]', PAIRS.format("0->1")),
        (ONE_TWO % '"0->1": [[1, 1.0]]', PAIRS.format("0->1")),
        (json.dumps({"order": obj["order"], "labels": [[0, 1]]}),
         '"labels" must be an object'),
        # arc keys must be canonical: decimal, no sign, leading zero or "_"
        (ONE_TWO % '"0->1": [[1, 1]], "00->1": [[2, 2]], "1_0->2": [[0, 0]]',
         BAD_KEY.format("00->1")),
        *((json.dumps({"order": [0, 1, 2], "labels": {key: [[1, 1]]}}),
           BAD_KEY.format(shown))
          for key, shown in [
              ("00->1", "00->1"), ("0->01", "0->01"), ("1_0->2", "1_0->2"),
              ("+0->1", "+0->1"), ("-0->1", "-0->1"), (" 0->1", " 0->1"),
              ("0->1 ", "0->1 "), ("0->1\n", "0->1\\n"),
              ("0->1\n1->0", "0->1\\n1->0"), ("0 ->1", "0 ->1"),
              ("0->\u0661", "0->\u0661"), ("0->", "0->"), ("->1", "->1")]),
        (ONE_TWO % '"3->1": [[1, 1]]', "arc '3->1' outside the order"),
        (ONE_TWO % '"0->3": [[1, 1]]', "arc '0->3' outside the order"),
        (ONE_TWO % f'"1->{"9" * 30}": [[1, 1]]', OUTSIDE),
        # a key given twice, also when the copies are identical
        (ONE_TWO % '"0->1": [[1, 1]], "0->1": [[2, 2]]', REPEATS),
        (ONE_TWO % '"0->1": [[1, 1]], "0->1": [[1, 1]]', REPEATS),
        ('{"order": [0, 1, 2], "order": [0, 1, 2], "labels": {}}', REPEATS),
        # ... or spelled with a JSON escape, which decodes to the same key
        (ONE_TWO % '"0->1": [[1, 1]], "\\u0030->1": [[2, 2]]', REPEATS),
        # ... or apart, or once with no intervals
        (ONE_TWO % '"0->1": [[1, 2]], "1->0": [[2, 0]], "0->1": [[2, 2]]', REPEATS),
        (ONE_TWO % '"0->1": [[1, 2]], "0->2": [[2, 2]], "0->1": []', REPEATS),
        # an arc's intervals must be a list of pairs
        (ONE_TWO % '"0->1": {}', BAD_KEY.format("0->1")),
        (ONE_TWO % '"0->1": "12"', BAD_KEY.format("0->1")),
        (ONE_TWO % '"0->1": [[1, 2]], "1->0": null', BAD_KEY.format("1->0")),
        (ONE_TWO % '"0->1": [[1, 2, 2]]', PAIRS.format("0->1")),
        (ONE_TWO % '"0->1": [[1, 2], [2]]', PAIRS.format("0->1")),
        (ONE_TWO % '"1->0": [0, 0]', PAIRS.format("1->0")),
        (ONE_TWO % '"1->0": [[[0, 0]]]', PAIRS.format("1->0")),
        (ONE_TWO % '"1->0": [null, null]', PAIRS.format("1->0")),
        (ONE_TWO % f'"0->1": [[1, {2 ** 70}]]', OUTSIDE),
        # escapes, signs, leading zeros and floats where the reader takes
        # digit runs
        ('{"order": [0, \\u0031, 2], "labels": {}}',
         INVALID + "Expecting value: line 1 column 15 (char 14)"),
        (ONE_TWO % '"0->1": [[1\\u0030, 2]]',
         INVALID + "Expecting ',' delimiter: line 1 column 44 (char 43)"),
        (ONE_TWO % '"0->1": [[1, "\\u0032"]]', PAIRS.format("0->1")),
        ('{"order": [0, 01, 2], "labels": {}}',
         INVALID + "Expecting ',' delimiter: line 1 column 16 (char 15)"),
        (ONE_TWO % '"0->1": [[01, 2]]',
         INVALID + "Expecting ',' delimiter: line 1 column 44 (char 43)"),
        (ONE_TWO % '"0->1": [[-1, 2]]', "interval [-1, 2] outside the order"),
        (ONE_TWO % '"0->1": [[-0, 3]]', "interval [0, 3] outside the order"),
        (ONE_TWO % '"-0->1": [[1, 2]]', BAD_KEY.format("-0->1")),
        ('{"order": [0, 1e0, 2], "labels": {}}', NOT_IDS),
        ('{"order": [0, 1.0, 2], "labels": {}}', NOT_IDS),
        (ONE_TWO % '"0->1": [[1, 1e0]]', PAIRS.format("0->1")),
        (ONE_TWO % '"0->1": [[1.0, 2]]', PAIRS.format("0->1")),
        # digits run together across whitespace
        ('{"order": [0, 1 2], "labels": {}}',
         INVALID + "Expecting ',' delimiter: line 1 column 17 (char 16)"),
        (ONE_TWO % '"0->1": [[1, 2]], "1->0": [[2 0]]',
         INVALID + "Expecting ',' delimiter: line 1 column 63 (char 62)"),
        # whitespace inside a key, raw or escaped
        (ONE_TWO % '"0->1": [[1, 2]], "1\t->0": [[2, 0]]',
         INVALID + "Invalid control character at: line 1 column 53 (char 52)"),
        (ONE_TWO % '"0->1": [[1, 2]], "1\\t->0": [[2, 0]]', BAD_KEY.format("1\\t->0")),
        ('{"ord er": [0, 1, 2], "labels": {}}', NEEDS),
        ('{"order": [0, 1, 2], "label s": {}}', NEEDS),
        # 20-digit ids, past int64
        (ONE_TWO % '"0->1": [[1, 12345678901234567890]]', OUTSIDE),
        ('{"order": [0, 1, 12345678901234567890], "labels": {}}',
         "items must be a permutation of 0..2"),
        (ONE_TWO % '"12345678901234567890->1": [[1, 2]]', OUTSIDE),
        # the id 10**18, inside int64
        (ONE_TWO % '"0->1": [[1, 1000000000000000000]]',
         "interval [1, 1000000000000000000] outside the order"),
        ('{"order": [0, 1, 1000000000000000000], "labels": {}}',
         "items must be a permutation of 0..2"),
        (ONE_TWO % '"1000000000000000000->1": [[1, 2]]',
         "arc '1000000000000000000->1' outside the order"),
        (ONE_TWO % '"0->1000000000000000000": [[1, 2]]',
         "arc '0->1000000000000000000' outside the order"),
        ('{"order": [], "labels": {}}', "cyclic order needs at least one element"),
        ('{"order": [], "labels": {"0->1": [[1, 1]]}}',
         "cyclic order needs at least one element"),
        # misplaced or missing commas and brackets
        ('{"order": [0, 1, 2] "labels": {}}',
         INVALID + "Expecting ',' delimiter: line 1 column 21 (char 20)"),
        (ONE_TWO % '"0->1": [[1, 2]] "1->0": [[2, 0]]',
         INVALID + "Expecting ',' delimiter: line 1 column 50 (char 49)"),
        (ONE_TWO % '"0->1": [[1, 2]], "1->0": [[2, 0]],',
         INVALID + "Expecting property name enclosed in double quotes: "
         "line 1 column 68 (char 67)"),
        ('{"order": [0, 1, 2,], "labels": {}}',
         INVALID + "Expecting value: line 1 column 20 (char 19)"),
        (ONE_TWO % '"0->1": [[1, 2]], "0->2": [[2, 2],]',
         INVALID + "Expecting value: line 1 column 67 (char 66)"),
        ('{"order": [[0], 2, 1], "labels": {}}', NOT_IDS),
        ('{"order": {"0": 1}, "labels": {}}', NOT_IDS),
        ('"order"', NEEDS),
        ("  ", INVALID + "Expecting value: line 1 column 3 (char 2)"),
        ("", INVALID + "Expecting value: line 1 column 1 (char 0)"),
        (b"", INVALID + "Expecting value: line 1 column 1 (char 0)"),
        ('{"order": [0, 1, 2], "labels": {"0->1": [[1, 2]]}',
         INVALID + "Expecting ',' delimiter: line 1 column 50 (char 49)"),
        # garbage after the closing brace
        (ONE_TWO % '"0->1": [[1, 1]]' + " x",
         INVALID + "Extra data: line 1 column 52 (char 51)"),
        (ONE_TWO % '"0->1": [[1, 1]]' + "}",
         INVALID + "Extra data: line 1 column 51 (char 50)"),
        (ONE_TWO % '"0->1": [[1, 1]]' + "{}",
         INVALID + "Extra data: line 1 column 51 (char 50)"),
        # a byte order mark, in bytes and in text
        (b"\xef\xbb\xbf" + (ONE_TWO % '"0->1": [[1, 1]]').encode(),
         INVALID + "Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        ("\ufeff" + ONE_TWO % '"0->1": [[1, 1]]',
         INVALID + "Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        # bytes that are no UTF-8, and text that encodes to none
        (b'{"order": [0, 1, 2], "labels": {"0->1": [[1, 1]]}, "x": "\xff"}',
         "scheme is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
         "position 57: invalid start byte"),
        (b'{"order": [0, 1, 2], "labels": {"0->1": [[1, 1\xff]]}}',
         "scheme is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
         "position 46: invalid start byte"),
        (ONE_TWO % '"\ud800": [[1, 1]]', BAD_KEY.format("\\ud800")),
        (ONE_TWO % '"0->1": [[1, 1]]' + "\ud800",
         INVALID + "Extra data: line 1 column 51 (char 50)"),
        (ONE_TWO % '"0->1": [[1,\ud800 1]]',
         INVALID + "Expecting value: line 1 column 45 (char 44)"),
    ]
    for payload, message in broken:
        with pytest.raises(StructuralSchemeError) as info:
            RoutingScheme.from_json(payload)
        assert type(info.value) is StructuralSchemeError, payload
        assert str(info.value) == message, payload


def test_scheme_json_huge_ids_fail_without_a_large_allocation():
    # every id is checked against n before anything is indexed by it
    import tracemalloc

    big = 10 ** 18
    for payload in [ONE_TWO % f'"0->1": [[1, {big}]]',
                    '{"order": [0, 1, %d], "labels": {}}' % big,
                    ONE_TWO % f'"{big}->1": [[1, 2]]',
                    ONE_TWO % f'"0->{big}": [[1, 2]]']:
        tracemalloc.start()
        try:
            with pytest.raises(StructuralSchemeError, match="outside the order|permutation"):
                RoutingScheme.from_json(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, payload


@pytest.mark.parametrize("n,arcs", [
    # a twin nested inside another arc's span
    (5, [(0, 3), (2, 7), (6, 9), (8, 1), (4, 5)]),
    # five-ring plus a nested twin
    (6, [(0, 3), (2, 7), (6, 9), (8, 11), (10, 1), (4, 5)]),
    # long overlapping arcs: dominating vertices and counter pairs at once
    (6, [(0, 7), (6, 1), (2, 11), (10, 3), (4, 9), (8, 5)]),
    # covering star: one hub, three leaves
    (4, [(1, 0), (7, 2), (3, 4), (5, 6)]),
    # two overlapping hubs with pendant leaves
    (5, [(9, 8), (7, 6), (0, 1), (2, 3), (4, 5)]),
    # hub path with leaves hanging off both hubs
    (6, [(1, 0), (11, 2), (3, 8), (4, 5), (6, 7), (9, 10)]),
    # covering model of an interval graph where the separator split once
    # pointed a far vertex at a tied-right-reach carrier (gen_random(6, 546))
    (6, [(7, 8), (10, 1), (2, 3), (5, 11), (9, 6), (0, 4)]),
])
def test_handcrafted_adversarial_models(n, arcs):
    from arcroute import validate_model

    model = validate_model(n, arcs)
    graph = intersection_graph(model)
    cycle = build_clique_cycle(model)
    ref_validate_cycle(cycle, model)
    scheme = build_scheme(model)
    assert verify_scheme(graph, scheme).passed
    assert (route_lengths(scheme, graph) == all_pairs_distances(graph)).all()


def test_unsorted_label_arrays_still_route():
    # hand-built schemes need not arrive arc-sorted
    import numpy as np

    from arcroute import CyclicOrder, route
    from conftest import C4_MODEL, load

    graph = intersection_graph(load(C4_MODEL))
    scheme = RoutingScheme(
        CyclicOrder([0, 1, 2, 3]),
        src=np.array([3, 0, 1, 0, 1, 2, 2, 3]),
        dst=np.array([0, 1, 0, 3, 2, 1, 3, 2]),
        start=np.array([0, 1, 0, 3, 2, 1, 3, 2]),
        length=np.array([2, 2, 1, 1, 2, 1, 2, 1]),
    )
    assert verify_scheme(graph, scheme).passed
    assert route(scheme, graph, 0, 2) == [0, 1, 2]


def test_two_vertex_covering_model():
    # the smallest covering model: two arcs overlapping at both ends,
    # collapsing to a single clique
    from arcroute import validate_model

    model = validate_model(2, [(1, 0), (3, 2)])
    graph = intersection_graph(model)
    cycle = build_clique_cycle(model)
    assert cycle.k == 1
    ref_validate_cycle(cycle, model)
    scheme = build_scheme(model)
    assert verify_scheme(graph, scheme).passed
    assert labels_of(scheme) == {(0, 1): [[1, 1]], (1, 0): [[0, 0]]}


def test_single_vertex_scheme_verifies():
    import numpy as np

    from arcroute import CyclicOrder

    graph = graph_from_edges(1, [])
    scheme = RoutingScheme(CyclicOrder([0]), np.empty(0), np.empty(0),
                           np.empty(0), np.empty(0))
    assert verify_scheme(graph, scheme).passed
