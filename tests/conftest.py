import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from arcroute import (
    ArcModel,
    Graph,
    build_clique_cycle,
    build_vertex_order,
    intersection_graph,
    parse_model,
    validate_model,
)
from arcroute.arc_model import arc_spans
from arcroute.builder import LabelingContext
from arcroute.errors import ConstructionError

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
    graph = intersection_graph(model)
    cycle = build_clique_cycle(model, graph)
    return LabelingContext(cycle, graph, build_vertex_order(cycle))


def block(ctx, v, a, b) -> np.ndarray:
    """Vertices at offsets ``a .. b - 1`` clockwise after v in the order."""
    return ctx.items[(ctx.pos[v] + np.arange(a, b)) % ctx.n]


def perturbed_ring(n, seed):
    """Arc i starts at ring step i + U[0, 1) and runs 2 to 4 steps; the 2n
    real endpoints are ranked to integer positions.  Sparse, covering, with
    no dominating vertex and no counter pair, so every vertex takes the
    separator case."""
    rng = random.Random(seed)
    points = []
    for i in range(n):
        start = i + rng.random()
        end = start + 2 + 2 * rng.random()
        points.append((start % n, i, 0))
        points.append((end % n, i, 1))
    points.sort()
    arcs = [[0, 0] for _ in range(n)]
    for rank, (_, arc, side) in enumerate(points):
        arcs[arc][side] = rank
    return validate_model(n, [tuple(a) for a in arcs])


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


@pytest.fixture
def search_calls(monkeypatch):
    """Count calls of the per-source BFS and of the all-pairs matrix."""
    import arcroute.arc_model
    import arcroute.builder

    calls = {"bfs_distances": 0, "all_pairs_distances": 0}

    def counting(name):
        real = getattr(arcroute.arc_model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in (arcroute.arc_model, arcroute.builder):
            monkeypatch.setattr(module, name, wrapper, raising=False)

    counting("bfs_distances")
    counting("all_pairs_distances")
    return calls
