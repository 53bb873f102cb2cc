"""The two acceptance oracles must agree on good and bad schemes alike.

verify_scheme judges a scheme by the defining constraints; the route
simulation judges it by delivered hop counts.  They are independent
implementations, so a corruption campaign checks that they accept and
reject exactly the same schemes.
"""

import random

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


def routes_shortest(scheme, graph) -> bool:
    try:
        return bool((route_lengths(scheme, graph) == all_pairs_distances(graph)).all())
    except RouteError:
        return False


def moved_interval(scheme, v, w, index, new_w):
    labels = {arc: list(ivls) for arc, ivls in scheme.labels.items()}
    ivl = labels[(v, w)].pop(index)
    labels.setdefault((v, new_w), []).append(ivl)
    return RoutingScheme.from_labels(
        scheme.order, {arc: tuple(ivls) for arc, ivls in labels.items()}
    )


def corrupted_variants(scheme, graph, rng, count):
    """Move single intervals onto other arcs of the same source.

    Random moves almost always break the scheme; moves whose new carrier
    is a first vertex for every member stay valid.  Both kinds must be
    classified identically by the two oracles.
    """
    from arcroute import first_vertices
    from arcroute.ring_order import ring_sequence

    arcs = sorted(scheme.labels)
    for _ in range(count):
        labels = scheme.labels
        (v, w) = arcs[rng.randrange(len(arcs))]
        if not labels[(v, w)]:
            continue
        index = rng.randrange(len(labels[(v, w)]))
        others = [int(u) for u in graph.neighbors[v] if int(u) != w]
        if not others:
            continue
        yield moved_interval(scheme, v, w, index, rng.choice(others))
        # a deliberate validity-preserving move, when one exists
        ivl = labels[(v, w)][index]
        members = ring_sequence(scheme.order, ivl.a, ivl.b)
        shared = set(others)
        for u in members:
            shared &= first_vertices(graph, v, int(u))
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
    labels = {arc: list(ivls) for arc, ivls in scheme.labels.items()}
    victim = next(arc for arc in sorted(labels) if labels[arc])
    labels[victim] = []
    broken = RoutingScheme.from_labels(
        scheme.order, {arc: tuple(ivls) for arc, ivls in labels.items()}
    )
    assert not verify_scheme(graph, broken).passed
    assert not routes_shortest(broken, graph)
