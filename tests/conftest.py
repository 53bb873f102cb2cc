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
)
from arcroute.arc_model import arc_spans, unique_keys
from arcroute.builder import LabelingContext
from arcroute.errors import ConstructionError, StructuralSchemeError
from arcroute.generator import gen_perturbed_ring
from arcroute.graph import UNREACHABLE
from arcroute.ring_order import is_id

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
    cycle = build_clique_cycle(model)
    return LabelingContext(cycle, build_vertex_order(cycle))


def block(ctx, v, a, b) -> np.ndarray:
    """Vertices at offsets ``a .. b - 1`` clockwise after v in the order."""
    return ctx.items[(ctx.pos[v] + np.arange(a, b)) % ctx.n]


# the separator-case family, sparse and of large diameter, under the name
# the tests use
perturbed_ring = gen_perturbed_ring


# References: the n-by-n broadcasts that the sweep in ``intersection_graph``
# and the per-edge ``counter_pairs`` test replaced.


def reference_intersection_graph(model) -> Graph:
    """Adjacency by comparing every pair of arcs at once."""
    starts, lengths = arc_spans(model)
    # arcs i, j intersect iff one's first gap lies within the other's range
    rel = (starts[None, :] - starts[:, None]) % model.circle_size
    adj = (rel < lengths[:, None]) | (rel.T < lengths[None, :])
    np.fill_diagonal(adj, False)
    return Graph(model.n, adj)


def reference_counter_matrix(cycle) -> np.ndarray:
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
            & cycle.graph.adj)


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
    return Graph(n, adj)


def ref_bfs_distances(graph, source) -> np.ndarray:
    """Hop counts from ``source``; UNREACHABLE (-1) marks other components."""
    check_ids(graph.n, source)
    dist = np.full(graph.n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(graph.adj[u]):
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def ref_first_vertices(graph, u, w) -> set[int]:
    """Neighbors of ``u`` that start some shortest path from ``u`` to ``w``
    (none when ``w`` is unreachable)."""
    check_ids(graph.n, u)
    dist = ref_bfs_distances(graph, w)
    return {int(v) for v in np.flatnonzero(graph.adj[u]) if dist[v] == dist[u] - 1}


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
