"""The two acceptance oracles must agree on good and bad schemes alike.

verify_scheme judges a scheme by the defining constraints; the route
simulation judges it by delivered hop counts.  They are independent
implementations, so a corruption campaign checks that they accept and
reject exactly the same schemes.
"""

import json
import random

import numpy as np

from arcroute import (
    RoutingScheme,
    all_pairs_distances,
    build_scheme,
    gen_random,
    intersection_graph,
    verify_scheme,
)
from arcroute.errors import RouteError
from arcroute.verifier import route_lengths
from conftest import labels_of, ref_first_vertices, ref_ring_sequence


def routes_shortest(scheme, graph) -> bool:
    try:
        return bool((route_lengths(scheme, graph) == all_pairs_distances(graph)).all())
    except RouteError:
        return False


def moved_interval(scheme, v, w, index, new_w):
    obj = json.loads(scheme.to_json())
    ivl = obj["labels"][f"{v}->{w}"].pop(index)
    obj["labels"].setdefault(f"{v}->{new_w}", []).append(ivl)
    return RoutingScheme.from_json(json.dumps(obj))


def corrupted_variants(scheme, graph, rng, count):
    """Move single intervals onto other arcs of the same source.

    Random moves almost always break the scheme; moves whose new carrier
    is a first vertex for every member stay valid.  Both kinds must be
    classified identically by the two oracles.
    """
    labels = labels_of(scheme)
    arcs = sorted(labels)
    for _ in range(count):
        (v, w) = arcs[rng.randrange(len(arcs))]
        ivls = labels[(v, w)]
        if not ivls:
            continue
        index = rng.randrange(len(ivls))
        others = [int(u) for u in np.flatnonzero(graph.adj[v]) if int(u) != w]
        if not others:
            continue
        yield moved_interval(scheme, v, w, index, rng.choice(others))
        # a deliberate validity-preserving move, when one exists
        members = ref_ring_sequence(scheme.order, *ivls[index])
        shared = set(others)
        for u in members:
            shared &= ref_first_vertices(graph, v, int(u))
            if not shared:
                break
        if shared:
            yield moved_interval(scheme, v, w, index, min(shared))


def test_verify_and_route_sweep_agree_on_corruptions():
    rng = random.Random(20240)
    outcomes = {True: 0, False: 0}
    for n, seed in [(8, 0), (8, 5), (12, 3), (16, 11)]:
        model = gen_random(n, seed)
        graph = intersection_graph(model)
        scheme = build_scheme(model)
        assert verify_scheme(graph, scheme).passed
        assert routes_shortest(scheme, graph)
        for variant in corrupted_variants(scheme, graph, rng, 40):
            verdict = verify_scheme(graph, variant).passed
            assert verdict == routes_shortest(variant, graph)
            outcomes[verdict] += 1
    # the campaign must actually exercise both verdicts
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_dropping_an_interval_fails_both_ways():
    model = gen_random(9, 2)
    graph = intersection_graph(model)
    scheme = build_scheme(model)
    obj = json.loads(scheme.to_json())
    victim = next(iter(obj["labels"]))  # the JSON lists arcs in sorted order
    obj["labels"][victim] = []
    broken = RoutingScheme.from_json(json.dumps(obj))
    assert not verify_scheme(graph, broken).passed
    assert not routes_shortest(broken, graph)
