"""Acceptance suite: seven criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The random sweep
(criteria 1 and 2) covers 1000 seeded models at each size in
{5, 10, 30, 64} and dominates the runtime (a few minutes).  Criterion 1
also sweeps perturbed rings up to n = 1000, where every vertex takes the
separator case.
"""

import time
from functools import lru_cache

import numpy as np

from arcroute import (
    all_pairs_distances,
    build_scheme,
    gen_complete,
    gen_random,
    gen_ring,
    gen_wheel,
    has_shortest_path_1irs,
    intersection_graph,
    interval_stats,
    route,
    verify_scheme,
)
from arcroute.verifier import route_lengths
from conftest import NO_SEARCHES, context_for, labels_of, perturbed_ring

SWEEP_SIZES = (5, 10, 30, 64)
SWEEP_SEEDS = 1000
PERTURBED_SIZES = (8, 16, 40, 120)
PERTURBED_SEEDS = 25
LARGE_RING_SIZE = 1000
LARGE_RING_SEEDS = 3


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@lru_cache(maxsize=1)
def random_sweep():
    """Build + verify + exhaustive route sweep over the random corpus.

    Routing is simulated for every ordered pair through the same
    forwarding table route() uses (the all-pairs pointer doubling;
    agreement with route() is pinned by unit tests), with literal route()
    calls sampled on every model.
    """
    verify_failures = []
    route_mismatches = []
    bound_failures = []
    for n in SWEEP_SIZES:
        for seed in range(SWEEP_SEEDS):
            model = gen_random(n, seed)
            graph = intersection_graph(model)
            scheme = build_scheme(model)
            rep = verify_scheme(graph, scheme)
            if not rep.passed:
                verify_failures.append((n, seed))
                continue
            dist = all_pairs_distances(graph)
            if not (route_lengths(scheme, graph) == dist).all():
                route_mismatches.append((n, seed))
            for dst in (1, n // 2, n - 1):
                if dst != 0:
                    path = route(scheme, graph, 0, dst)
                    if len(path) - 1 != dist[0, dst]:
                        route_mismatches.append((n, seed))
            stats = interval_stats(scheme)
            if not (stats.total_within_bound and stats.per_arc_within_bound
                    and stats.doubles_within_bound):
                bound_failures.append((n, seed))
    return verify_failures, route_mismatches, bound_failures


def test_criterion_1_random_correctness_sweep():
    verify_failures, route_mismatches, _ = random_sweep()
    ok = not verify_failures and not route_mismatches
    report(
        1, ok,
        f"{SWEEP_SEEDS} seeds at each n in {SWEEP_SIZES}: "
        f"{len(verify_failures)} verification failures, "
        f"{len(route_mismatches)} route/distance mismatches",
    )


def test_criterion_1_perturbed_ring_sweep(search_calls):
    """Separator and cut plans are emitted unchecked, so only this sweep
    checks them: verify plus every simulated route on perturbed rings.  No
    build may run a graph search; small random models add cut models and
    counter pairs."""
    models = [(f"perturbed_ring({n}, {seed})", perturbed_ring(n, seed))
              for n in PERTURBED_SIZES for seed in range(PERTURBED_SEEDS)]
    models += [(f"perturbed_ring({LARGE_RING_SIZE}, {seed})",
                perturbed_ring(LARGE_RING_SIZE, seed))
               for seed in range(LARGE_RING_SEEDS)]
    rings = len(models)
    models += [(f"gen_random({n}, {seed})", gen_random(n, seed))
               for n in (5, 10) for seed in range(100)]
    # cut models with separator-case facing blocks, which are split at the cut
    models += [(f"gen_random({n}, {seed})", gen_random(n, seed))
               for n, seed in ((6, 546), (5, 101), (8, 22))]
    failures, searched, cuts = [], [], 0
    for name, model in models:
        search_calls.update(NO_SEARCHES)
        scheme = build_scheme(model)
        if any(search_calls.values()):
            searched.append(name)
        cuts += context_for(model).has_cut
        graph = intersection_graph(model)
        if not (verify_scheme(graph, scheme).passed
                and (route_lengths(scheme, graph)
                     == all_pairs_distances(graph)).all()):
            failures.append(name)
    report(
        1, not failures and not searched,
        f"{PERTURBED_SEEDS} perturbed rings at each n in {PERTURBED_SIZES}, "
        f"{LARGE_RING_SEEDS} at n = {LARGE_RING_SIZE} and {len(models) - rings} "
        f"small random models: {len(failures)} verification or route failures; "
        f"{len(searched)} of {len(models)} builds ({cuts} with a cut) "
        f"computed distances" + (f" ({searched[:5]})" if searched else ""),
    )


def test_criterion_2_interval_bounds():
    _, _, bound_failures = random_sweep()
    report(
        2, not bound_failures,
        f"interval bounds (total <= 2m+n, per-arc <= 2, doubles <= 1) "
        f"violated on {len(bound_failures)} of "
        f"{SWEEP_SEEDS * len(SWEEP_SIZES)} models",
    )


def test_criterion_3_rings_get_single_intervals():
    offenders = []
    for k in range(4, 65):
        scheme = build_scheme(gen_ring(k))
        graph = intersection_graph(gen_ring(k))
        stats = interval_stats(scheme)
        if stats.max_intervals_per_arc != 1 or not verify_scheme(graph, scheme).passed:
            offenders.append(k)
    report(
        3, not offenders,
        f"rings k=4..64 all carry exactly 1 interval per arc"
        + (f" (offenders: {offenders})" if offenders else ""),
    )


def test_criterion_4_wheel_lower_bound():
    details = []
    ok = True
    for k in (6, 7):
        model = gen_wheel(k)
        graph = intersection_graph(model)
        started = time.perf_counter()
        oracle = has_shortest_path_1irs(graph)
        elapsed = time.perf_counter() - started
        scheme = build_scheme(model)
        verified = verify_scheme(graph, scheme)
        stats = interval_stats(scheme)
        good = (not oracle.exists_1irs and elapsed < 60.0
                and verified.passed and stats.per_arc_within_bound)
        ok = ok and good
        details.append(f"wheel-{k}: no 1-IRS in {elapsed:.1f}s, "
                       f"builder 2-interval scheme verified={verified.passed}")
    report(4, ok, "; ".join(details))


def test_criterion_5_complete_graph_singletons():
    ok = True
    for n in (4, 6):
        model = gen_complete(n)
        graph = intersection_graph(model)
        scheme = build_scheme(model)
        labels = labels_of(scheme)
        singletons = all(ivls == [[w, w]] for (v, w), ivls in labels.items())
        ok = ok and singletons and verify_scheme(graph, scheme).passed
        ok = ok and len(labels) == n * (n - 1)
    report(5, ok, "K4 and K6 carry one singleton per directed arc, verified")


def test_criterion_6_build_time_scaling():
    sizes = (250, 500, 1000, 2000)
    ok = True
    details = []
    for family, make in (("random", gen_random), ("perturbed_ring", perturbed_ring)):
        times = {}
        for n in sizes:
            model = make(n, 1)
            best = float("inf")
            for _ in range(3):
                # CPU time: a build runs no BLAS threads, so this is its own
                # work, whatever else shares the host
                started = time.process_time()
                build_scheme(model)
                best = min(best, time.process_time() - started)
            times[n] = best
        slope = float(np.polyfit(np.log(sizes),
                                 np.log([times[n] for n in sizes]), 1)[0])
        ok = ok and slope <= 2.3 and times[2000] < 10.0
        details.append(
            f"{family}: power-law exponent {slope:.2f} (<= 2.3), "
            f"n=2000 build {times[2000]:.2f}s (< 10s); "
            + ", ".join(f"n={n}: {times[n]:.2f}s" for n in sizes)
        )
    report(6, ok, "; ".join(details))


def test_criterion_7_oracle_cross_validation():
    families = [("ring", gen_ring(k)) for k in range(3, 9)]
    families += [("wheel", gen_wheel(k)) for k in range(3, 8)]
    families += [("complete", gen_complete(n)) for n in range(2, 9)]
    exceptions = []
    confirmed = 0
    for name, model in families:
        graph = intersection_graph(model)
        if graph.n > 8:
            continue
        scheme = build_scheme(model)
        if interval_stats(scheme).max_intervals_per_arc > 1:
            continue  # one-directional check only
        if has_shortest_path_1irs(graph).exists_1irs:
            confirmed += 1
        else:
            exceptions.append((name, graph.n))
    report(
        7, not exceptions,
        f"{confirmed} single-interval builder outputs confirmed by the "
        f"brute-force search, {len(exceptions)} exceptions",
    )
