import json
import os
import re
import sys
from collections import deque
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from arcroute import (
    ArcModel,
    CyclicOrder,
    Graph,
    RoutingScheme,
    build_clique_cycle,
    build_vertex_order,
    intersection_graph,
    parse_model,
    validate_model,
)
from arcroute.arc_model import arc_spans, unique_keys
from arcroute.builder import LabelingContext, _reject_first
from arcroute.errors import ConstructionError, StructuralSchemeError
from arcroute.generator import gen_perturbed_ring
from arcroute.graph import UNREACHABLE
from arcroute.ring_order import changes, is_id

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict[str, str]:
    """This environment with the repository's ``src`` first on PYTHONPATH,
    for tests that run a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


# ring of four arcs; the running example across the suite
C4_MODEL = {"n": 4, "arcs": [[0, 3], [2, 5], [4, 7], [6, 1]]}

# triangle from three mutually overlapping arcs covering the circle
K3_MODEL = {"n": 3, "arcs": [[0, 3], [2, 5], [4, 1]]}

# two pairs of arcs overlapping at both ends: (0,1) and (2,3) are
# counter pairs; the intersection graph is K4
COUNTER_MODEL = {"n": 4, "arcs": [[0, 5], [4, 1], [2, 7], [6, 3]]}


def load(model_dict: dict) -> ArcModel:
    return parse_model(json.dumps(model_dict))


def context_for(model) -> LabelingContext:
    """The labeling context of ``model``, with the model's intersection
    graph attached as ``graph`` and its boolean matrix as ``adj`` for the
    references to read; a build reads the cycle's edge list and makes no
    graph."""
    cycle = build_clique_cycle(model)
    ctx = LabelingContext(cycle, build_vertex_order(cycle))
    ctx.graph = intersection_graph(model)
    ctx.adj = adjacency(ctx.graph)
    return ctx


def graph_from_matrix(adj) -> Graph:
    """The graph of a symmetric boolean matrix with a false diagonal."""
    return Graph(len(adj), *np.nonzero(adj))


def adjacency(graph) -> np.ndarray:
    """The n-by-n boolean matrix of ``graph``, which the library keeps
    nowhere: a key ``u * n + v`` is the cell of edge (u, v)."""
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    np.put(adj, graph.keys, True)
    return adj


def block(ctx, v, a, b) -> np.ndarray:
    """Vertices at offsets ``a .. b - 1`` clockwise after v in the order."""
    return ctx.items[(ctx.pos[v] + np.arange(a, b)) % ctx.n]


def facing_case(ctx, v) -> str:
    """Which case of the facing-block planner v's nonempty facing block
    takes, decided as ``_plan_facings``' masks decide it."""
    if ctx.dominating[block(ctx, v, ctx.lo[v], ctx.hi[v])].any():
        return "dominating members"
    if ctx.has_counter[v] or ctx.any_dominating:
        return "shared neighbor"
    if ctx.any_counter_pair:
        return "near counter pair"
    return "cut" if ctx.has_cut else "separator"


def check_frame_guarantees(ctx) -> None:
    """Assert what the facing-block cases read of the frames unchecked.

    Every vertex whose case reads ``right_of`` (near counter pair, cut and
    separator) has a right vertex.  In a model that takes the plain case
    (no dominating vertex, no counter pair) and has no cut, every vertex
    has a left and a right vertex, and every right step gains a clique;
    with a cut, only the cut head may lack a left vertex."""
    vs = [v for v in np.flatnonzero(ctx.lo < ctx.hi).tolist()
          if facing_case(ctx, v) in ("near counter pair", "cut", "separator")]
    assert (ctx.right_of[vs] != -1).all(), vs
    if ctx.any_dominating or ctx.any_counter_pair:
        return
    if ctx.has_cut:
        assert set(np.flatnonzero(ctx.left_of == -1).tolist()) <= {ctx.cut_head}
        return
    assert (ctx.left_of != -1).all() and (ctx.right_of != -1).all()
    right = ctx.cycle.right
    assert ((right[ctx.right_of] - right) % ctx.cycle.k > 0).all()


# the separator-case family, sparse and of large diameter, under the name
# the tests use
perturbed_ring = gen_perturbed_ring


def _matchings(points: list[int]):
    """Every way to pair up ``points``, each pair (lower, higher)."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for pairs in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + pairs


def covering_models(n: int) -> list[ArcModel]:
    """One model of every class of circle-covering models with ``n`` arcs
    up to rotation and reflection, in ascending order of its arcs.

    A model is a set of oriented endpoint pairs on the ``2n`` positions.
    The 4n symmetries rotate positions by ``r`` and reflect ``p`` to
    ``-p``, which turns arc ``(s, e)`` into ``(-e, -s)``; a class keeps the
    least sorted arc tuple among its images.  Arc ids follow that tuple."""
    size = 2 * n
    full = (1 << size) - 1
    classes = set()
    for pairs in _matchings(list(range(size))):
        for flips in range(1 << n):
            arcs = [(e, s) if flips >> i & 1 else (s, e)
                    for i, (s, e) in enumerate(pairs)]
            # gaps s .. e - 1 of every arc, as bits of the doubled circle
            covered = 0
            for s, e in arcs:
                covered |= ((1 << (e - s) % size) - 1) << s
            if (covered | covered >> size) & full != full:
                continue
            mirror = [(-e, -s) for s, e in arcs]
            images = [[((s + r) % size, (e + r) % size) for s, e in image]
                      for image in (arcs, mirror) for r in range(size)]
            classes.add(min(tuple(sorted(image)) for image in images))
    return [validate_model(n, list(arcs)) for arcs in sorted(classes)]


# References: the n-by-n broadcasts that the sweep in ``intersection_graph``
# and the per-edge ``counter_pairs`` test replaced.


def reference_intersection_graph(model) -> Graph:
    """Adjacency by comparing every pair of arcs at once."""
    starts, lengths = arc_spans(model)
    # arcs i, j intersect iff one's first gap lies within the other's range
    rel = (starts[None, :] - starts[:, None]) % model.circle_size
    adj = (rel < lengths[:, None]) | (rel.T < lengths[None, :])
    np.fill_diagonal(adj, False)
    return graph_from_matrix(adj)


def reference_counter_matrix(cycle, graph) -> np.ndarray:
    """Boolean n-by-n matrix of counter pairs.

    ``u`` and ``v`` form a counter pair when they are adjacent and their
    shared clique run splits in two pieces (arcs overlapping at both ends
    of the circle): neither run is the whole cycle, the runs start at
    different cliques, and each holds the other's start.
    """
    k = cycle.k
    lc = cycle.left
    ln = cycle.span_len
    rel = (lc[None, :] - lc[:, None]) % k
    contains = rel < ln[:, None]  # contains[u, v]: u's run holds v's left clique
    proper = ln < k
    return (contains & contains.T
            & (lc[:, None] != lc[None, :])
            & proper[:, None] & proper[None, :]
            & adjacency(graph))


# References: the single-pair graph helpers, which no part of the library
# needs; the scheme is built from the arcs and checked against all pairs.


def check_ids(n, *ids) -> None:
    """Reject anything but an integer id in 0..n-1: numpy would read -1 as
    the last row and True as 1, and answer for the wrong vertex."""
    for x in ids:
        if not (is_id(x) and 0 <= x < n):
            raise ValueError(f"{x!r} is not an id in 0..{n - 1}")


def graph_from_edges(n, edges) -> Graph:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        check_ids(n, u, v)
        adj[u, v] = adj[v, u] = True
    return graph_from_matrix(adj)


def ref_bfs_distances(graph, source) -> np.ndarray:
    """Hop counts from ``source``; UNREACHABLE (-1) marks other components."""
    check_ids(graph.n, source)
    adj = adjacency(graph)
    dist = np.full(graph.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def ref_first_vertices(graph, u, w) -> set[int]:
    """Neighbors of ``u`` that start some shortest path from ``u`` to ``w``
    (none when ``w`` is unreachable)."""
    check_ids(graph.n, u)
    dist = ref_bfs_distances(graph, w)
    return {int(v) for v in np.flatnonzero(adjacency(graph)[u])
            if dist[v] == dist[u] - 1}


def ref_ring_sequence(order, a, b) -> list[int]:
    """Elements from ``a`` to ``b`` clockwise, as a list starting at ``a``."""
    check_ids(order.n, a, b)
    i, j = order.pos[a], order.pos[b]
    return order.items[(i + np.arange((j - i) % order.n + 1)) % order.n].tolist()


def covers_gap(model, i, gap) -> bool:
    """Does arc ``i`` cover gap ``gap``?"""
    s, e = model.arcs[i]
    return (gap - s) % model.circle_size < (e - s) % model.circle_size


def members(cycle, model, clique) -> tuple[int, ...]:
    """Vertices of a clique (arcs covering its anchor gap)."""
    gap = int(cycle.anchors[clique])
    return tuple(v for v in range(model.n) if covers_gap(model, v, gap))


def ref_validate_cycle(cycle, model) -> None:
    """Exhaustive invariant check of a clique cycle; O(n * k)."""
    k = cycle.k
    if k > model.circle_size:
        raise ConstructionError(f"{k} cliques exceed the 2n bound")
    member_sets = [frozenset(members(cycle, model, c)) for c in range(k)]
    for a in range(k):
        for b in range(k):
            if a != b and member_sets[a] <= member_sets[b]:
                raise ConstructionError(f"clique {a} not maximal (inside {b})")
    for v in range(model.n):
        run = {c for c in range(k) if v in member_sets[c]}
        expected = {(int(cycle.left[v]) + i) % k
                    for i in range(int(cycle.span_len[v]))}
        if run != expected:
            raise ConstructionError(
                f"clique run of vertex {v} is not the ring-interval "
                f"[{cycle.left[v]}, {cycle.right[v]}]"
            )


def labels_of(scheme) -> dict[tuple[int, int], list[list[int]]]:
    """A scheme's intervals as its JSON writes them, keyed by arc (v, w)."""
    labels = json.loads(scheme.to_json())["labels"]
    return {tuple(map(int, key.split("->"))): ivls for key, ivls in labels.items()}


# References: the scheme JSON writer and reader that formatted and parsed
# one interval at a time in Python, before both became bulk passes.


def ref_to_json(scheme) -> str:
    """The scheme's JSON, one formatted row per interval."""
    items = scheme.order.items
    first = items[scheme.start].tolist()
    last = items[(scheme.start + scheme.length - 1) % len(items)].tolist()
    # a row that opens its arc closes the entry before and opens its
    # arc's, any other joins the same list
    opens = np.ones(len(scheme.src), dtype=bool)
    opens[1:] = ((scheme.src[1:] != scheme.src[:-1])
                 | (scheme.dst[1:] != scheme.dst[:-1]))
    rows = "".join(
        f']], "{v}->{w}": [[{a}, {b}' if new else f'], [{a}, {b}'
        for new, v, w, a, b in zip(opens.tolist(), scheme.src.tolist(),
                                   scheme.dst.tolist(), first, last))
    labels = rows[len("]], "):] + "]]" if rows else ""
    order = ", ".join(map(str, items.tolist()))
    return f'{{"order": [{order}], "labels": {{{labels}}}}}'


_REF_ARC_KEY = re.compile(r"(?:0|[1-9][0-9]*)->(?:0|[1-9][0-9]*)")


def ref_from_json(data) -> RoutingScheme:
    """The scheme of ``data`` through ``json.loads``, checking every
    interval in Python."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StructuralSchemeError(f"scheme is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(data, object_pairs_hook=unique_keys(
            StructuralSchemeError, "scheme JSON repeats an object key"))
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise StructuralSchemeError(f"invalid scheme JSON: {exc}") from exc
    if not isinstance(obj, dict) or "order" not in obj or "labels" not in obj:
        raise StructuralSchemeError('scheme needs "order" and "labels"')
    raw_order, raw_labels = obj["order"], obj["labels"]
    if not (isinstance(raw_order, list) and all(map(is_id, raw_order))):
        raise StructuralSchemeError('"order" must be a list of integers')
    if not isinstance(raw_labels, dict):
        raise StructuralSchemeError('"labels" must be an object')
    try:
        order = CyclicOrder(raw_order)
    except ValueError as exc:
        raise StructuralSchemeError(str(exc)) from exc
    n = order.n
    keys, lists = list(raw_labels), list(raw_labels.values())
    for key, ivls in zip(keys, lists):
        if _REF_ARC_KEY.fullmatch(key) is None or not isinstance(ivls, list):
            raise StructuralSchemeError(f"bad labels entry {key!r}")
    ends = list(chain.from_iterable(lists))
    pairs = set(map(type, ends)) <= {list} and set(map(len, ends)) <= {2}
    # type() is exact: JSON booleans decode to bool, a subclass of int
    if not (pairs and set(map(type, chain.from_iterable(ends))) <= {int}):
        key = next(k for k, ivls in zip(keys, lists) if not all(
            type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
            for e in ivls))
        raise StructuralSchemeError(
            f"bad labels entry {key!r}: intervals must be pairs of integers"
        )
    try:
        arcs = np.array(" ".join(keys).replace("->", " ").split(),
                        dtype=np.int64).reshape(-1, 2)
        ab = np.array(ends, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise StructuralSchemeError("vertex id outside the order") from exc
    if (arcs >= n).any():
        key = keys[int(np.flatnonzero((arcs >= n).any(axis=1))[0])]
        raise StructuralSchemeError(f"arc {key!r} outside the order")
    outside = ((ab < 0) | (ab >= n)).any(axis=1)
    if outside.any():
        a, b = ab[outside][0].tolist()
        raise StructuralSchemeError(f"interval [{a}, {b}] outside the order")
    start, end = order.pos[ab.T]
    counts = list(map(len, lists))
    return RoutingScheme(order, np.repeat(arcs[:, 0], counts),
                         np.repeat(arcs[:, 1], counts), start,
                         (end - start) % n + 1)


def same_scheme(a, b) -> bool:
    """Equal order and equal rows, dtypes included."""
    return a.order == b.order and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("src", "dst", "start", "length"))


# Reference: the structure check of the verifier while ``Graph`` kept a
# boolean matrix, one gather of every row's arc.


def ref_check_structure(graph, scheme) -> None:
    """Raise StructuralSchemeError when the scheme's order has another
    vertex count than the graph, or a row's arc is no graph edge."""
    n = graph.n
    if scheme.n != n:
        raise StructuralSchemeError(
            f"scheme order covers {scheme.n} vertices, graph has {n}"
        )
    # the rows are sorted by arc, so the first non-edge is the lowest
    bad = ~adjacency(graph)[scheme.src, scheme.dst]
    if bad.any():
        i = np.argmax(bad)
        raise StructuralSchemeError(
            f"arc ({scheme.src[i]}, {scheme.dst[i]}) is not a graph edge")


# Reference: the join as it was while its second sort was stable.


def reference_join_runs(pos: np.ndarray, src, dst, offset, length):
    """Join runs into the scheme's interval rows in one bulk pass, checking
    the scheme's shape.

    Run ``i`` assigns the ``length[i]`` vertices from ``offset[i]`` steps
    clockwise after ``src[i]`` on to arc ``(src[i], dst[i])``; ``pos`` maps
    a vertex to its order position.  Taken by source and offset, runs of
    one arc that abut become one.  The rows come out sorted by arc, the run
    that holds its target first, with offsets turned into start positions.

    ConstructionError names the lowest vertex with a joined row that starts
    at it or runs past it, with rows that cover other than n - 1 vertices,
    with rows that overlap or leave a hole when taken by offset, with an arc
    that carries more than two intervals, or with two arcs that carry two.
    Joining merges only abutting runs of one arc, so it changes no verdict.
    """
    n = len(pos)
    # one key per sort: (source, offset), then (source, target, the run
    # holding its target first); no key outlives its sort
    idx = (np.multiply(src, n, dtype=np.int64) + offset).argsort(kind="stable")
    src, dst, offset, length = src[idx], dst[idx], offset[idx], length[idx]
    end = offset + length
    new = changes(src, dst)
    new[1:] |= offset[1:] != end[:-1]
    # a joined run ends where its last row ends, the row before the next new one
    end = end[np.concatenate((new[1:], new[:1]))]
    src, dst, offset = src[new], dst[new], offset[new]
    _reject_first((offset < 1) | (offset >= n) | (end > n),
                  "interval covers its own source", src)
    length = end - offset
    totals = np.bincount(src, weights=length, minlength=n).astype(np.int64)
    if (totals != n - 1).any():
        v = int((totals != n - 1).argmax())
        raise ConstructionError(
            f"intervals cover {int(totals[v])} of {n - 1} destinations", vertex=v
        )
    # with every total exact, a source's rows tile its offsets 1 .. n - 1
    # iff each starts where the one before it ends, the first at 1
    expected = np.where(changes(src), 1, np.concatenate((end[-1:], end[:-1])))
    _reject_first(offset != expected, "intervals overlap or leave a hole", src)
    target = (pos[dst] - pos[src]) % n
    holds = (offset <= target) & (target < end)
    idx = ((np.multiply(src, n, dtype=np.int64) + dst) * 2 + ~holds).argsort(
        kind="stable")
    src, dst, offset, length = src[idx], dst[idx], offset[idx], length[idx]
    # a row that opens no arc is an arc's second interval, or a later one
    more = ~changes(src, dst)
    _reject_first(more[1:] & more[:-1], "an arc carries more than two intervals",
                  src[1:])
    _reject_first(np.bincount(src[more], minlength=n) > 1,
                  "more than one outgoing arc carries two intervals")
    return src, dst, (pos[src] + offset) % n, length


@pytest.fixture
def c4_model() -> ArcModel:
    return load(C4_MODEL)


@pytest.fixture
def c4_graph(c4_model) -> Graph:
    return intersection_graph(c4_model)


@pytest.fixture
def k3_model() -> ArcModel:
    return load(K3_MODEL)


@pytest.fixture
def counter_model() -> ArcModel:
    return load(COUNTER_MODEL)


# call counts of a run that searched no graph; see ``search_calls``
NO_SEARCHES = dict.fromkeys(
    ("all_pairs_distances", "_frontier_distances", "_scipy_distances"), 0)


@pytest.fixture
def search_calls(monkeypatch):
    """Count the calls of every graph search the library has, through every
    binding of it in the package."""
    import arcroute.graph

    calls = dict(NO_SEARCHES)
    modules = [m for name, m in sys.modules.items()
               if name.partition(".")[0] == "arcroute"]

    def counting(name):
        real = getattr(arcroute.graph, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counting(name)
    return calls
