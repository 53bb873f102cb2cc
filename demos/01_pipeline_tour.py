#!/usr/bin/env python3
"""Walk the full pipeline on a four-arc ring model.

Shows every intermediate artifact: the arc geometry, the intersection
graph, the clique-cycle with per-vertex spans, the vertex order, one
vertex's frame, and the finished routing scheme with a verification
report and simulated routes.
"""

import numpy as np

from arcroute import (
    build_clique_cycle,
    build_scheme,
    build_vertex_order,
    intersection_graph,
    interval_stats,
    parse_model,
    route,
    verify_scheme,
)
from arcroute.builder import LabelingContext

MODEL = '{"n": 4, "arcs": [[0, 3], [2, 5], [4, 7], [6, 1]]}'


def main() -> None:
    model = parse_model(MODEL)
    print(f"model: {model.to_json()}")
    print(f"arc 3 covers gaps 6, 7, 0 (it wraps past position 0)\n")

    graph = intersection_graph(model)
    # each edge (u, v) is kept both ways as the sorted key u * n + v
    u, v = np.divmod(graph.keys, graph.n)
    edges = [e for e in zip(u.tolist(), v.tolist()) if e[0] < e[1]]
    print(f"edges: {edges}  (the 4-cycle)\n")

    cycle = build_clique_cycle(model)
    print(f"clique-cycle: {cycle.k} maximal point cliques, clockwise; "
          f"each vertex's clique run:")
    for v in range(model.n):
        print(f"  vertex {v}: cliques {cycle.left[v]} .. {cycle.right[v]} "
              f"({cycle.span_len[v]} of them)")
    print()

    vorder = build_vertex_order(cycle)
    print(f"vertex order: {vorder.order.items.tolist()}")

    # the context holds every vertex's frame as arrays; the blocks are runs
    # of offsets after the vertex: 1 .. lo-1, lo .. hi-1 and hi .. n-1
    ctx = LabelingContext(cycle, vorder)
    lo, hi = ctx.lo[0], ctx.hi[0]
    print(f"frame of vertex 0: left vertex {ctx.left_of[0]}, "
          f"middle vertex {ctx.middle_of[0]}, lo {lo}, hi {hi}")
    after = np.roll(ctx.items, -ctx.pos[0])  # the order, from vertex 0 on
    print(f"  right block  {after[1:lo].tolist()}  (adjacent, one singleton each)")
    print(f"  facing block {after[lo:hi].tolist()}  (not adjacent, split by cases)")
    print(f"  left block   {after[hi:].tolist()}  (served by its adjacent members)\n")

    scheme = build_scheme(model)
    print(f"scheme: {scheme.to_json()}\n")

    report = verify_scheme(graph, scheme)
    stats = interval_stats(scheme)
    print(f"verification passed: {report.passed}")
    print(f"intervals: {stats.total_intervals} total, "
          f"max {stats.max_intervals_per_arc} per arc "
          f"(bound 2m+n = {2 * graph.m + graph.n})\n")

    for src, dst in [(0, 2), (3, 1), (2, 0)]:
        print(f"route {src} -> {dst}: {' -> '.join(map(str, route(scheme, graph, src, dst)))}")


if __name__ == "__main__":
    main()
