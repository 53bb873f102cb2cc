"""Circular-arc models and their intersection graphs.

A model places ``n`` closed arcs on a circle with ``2n`` distinct endpoint
positions.  All geometry is integer-exact: the circle is cut into ``2n``
gaps (gap ``g`` sits between positions ``g`` and ``g+1``), arc ``(s, e)``
covers gaps ``s, s+1, ..., e-1`` modulo ``2n``, and two arcs intersect
exactly when they share a covered gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateArcError,
    DuplicateEndpointError,
    ModelFormatError,
    PositionOutOfRangeError,
)
from .ring_order import _points_in_spans, expand_runs, is_id, ring_coverage

UNREACHABLE = -1


@dataclass(frozen=True)
class ArcModel:
    """``n`` arcs as (start, end) position pairs on a ``2n``-position circle."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    @property
    def circle_size(self) -> int:
        return 2 * self.n

    def to_json(self) -> str:
        arcs = ", ".join(f"[{s}, {e}]" for s, e in self.arcs)
        return f'{{"n": {self.n}, "arcs": [{arcs}]}}'


def validate_model(n: int, arcs: list[tuple[int, int]]) -> ArcModel:
    """Check the model invariants and freeze the result."""
    if not is_id(n):
        raise ModelFormatError(f"vertex count must be an int, got {n!r}")
    n = int(n)  # 2 * n must not wrap in a small numpy type
    if n < 1:
        raise ModelFormatError(f"vertex count must be positive, got {n}")
    try:
        count = len(arcs)
    except TypeError:
        raise ModelFormatError(f"arcs must be a list of pairs, got {arcs!r}") from None
    if count != n:
        raise ModelFormatError(f"expected {n} arcs, got {count}")
    size = 2 * n
    owner = [-1] * size  # the arc holding each position so far
    frozen = []
    for i, entry in enumerate(arcs):
        try:
            s, e = entry
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ModelFormatError(f"arc {i}: {entry!r} is not a pair of ints") from None
        # int() would cut 1.5 to 1 and read True as 1; plain ints skip the
        # slower is_id, as every parsed model comes through here
        if not (type(s) is type(e) is int or is_id(s) and is_id(e)):
            raise ModelFormatError(f"arc {i}: ({s!r}, {e!r}) is not a pair of ints")
        if not (0 <= s < size and 0 <= e < size):
            p = e if 0 <= s < size else s
            raise PositionOutOfRangeError(f"arc {i}: position {p} outside [0, {size})")
        if s == e:
            raise DegenerateArcError(f"arc {i}: start equals end ({s})")
        if owner[s] != -1 or owner[e] != -1:
            p = s if owner[s] != -1 else e
            raise DuplicateEndpointError(f"position {p} used by arcs {owner[p]} and {i}")
        owner[s] = owner[e] = i
        frozen.append((int(s), int(e)))
    return ArcModel(n=n, arcs=tuple(frozen))


def parse_model(data: bytes | str) -> ArcModel:
    """Parse the canonical JSON format ``{"n": ..., "arcs": [[s, e], ...]}``."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"model is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(data, object_pairs_hook=unique_keys(
            ModelFormatError, "model JSON repeats an object key"))
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "arcs" not in obj:
        raise ModelFormatError('expected an object with keys "n" and "arcs"')
    n = obj["n"]
    raw = obj["arcs"]
    if not is_id(n) or not isinstance(raw, list):
        raise ModelFormatError('"n" must be an int and "arcs" a list')
    for entry in raw:
        # JSON numbers parse to int, float or bool, so this plain type test
        # is is_id here; validate_model repeats only the same cheap test
        if not (type(entry) is list and len(entry) == 2
                and type(entry[0]) is type(entry[1]) is int):
            raise ModelFormatError(f"arc entry {entry!r} is not a pair of ints")
    return validate_model(n, raw)


def unique_keys(error: type[Exception], message: str):
    """``json.loads`` object hook that raises ``error(message)`` on a key
    given twice."""
    def hook(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            raise error(message)
        return obj
    return hook


def arc_spans(model: ArcModel) -> tuple[np.ndarray, np.ndarray]:
    """(first covered gap, number of covered gaps) of every arc, as arrays."""
    arcs = np.asarray(model.arcs, dtype=np.int64)
    starts = arcs[:, 0]
    return starts, (arcs[:, 1] - starts) % model.circle_size


def gap_coverage(model: ArcModel) -> np.ndarray:
    """Number of arcs covering each gap of the circle."""
    return ring_coverage(*arc_spans(model), model.circle_size)


def is_real(model: ArcModel) -> bool:
    """True when the arcs jointly cover every gap of the circle."""
    return bool((gap_coverage(model) > 0).all())


class Graph:
    """Undirected graph with dense ids, immutable after construction.

    Keeps a boolean adjacency matrix so that hot paths get O(1) adjacency
    tests; fine for the n <= a few thousand instances this package
    targets.  A vertex's sorted neighbors are ``np.flatnonzero(adj[v])``.
    """

    __slots__ = ("n", "m", "adj", "degrees")

    def __init__(self, n: int, adj: np.ndarray):
        if not (is_id(n) and isinstance(adj, np.ndarray) and adj.dtype == bool
                and adj.shape == (n, n)):
            raise ValueError(f"adjacency must be an n x n boolean array with "
                             f"n = {n!r}")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not _is_symmetric(adj):
            raise ValueError("adjacency must be symmetric")
        self.n = int(n)
        self.adj = adj
        self.degrees = adj.sum(axis=1).astype(np.int64)
        self.m = int(self.degrees.sum()) // 2


def _is_symmetric(adj: np.ndarray) -> bool:
    """``adj == adj.T``, compared in 512 x 512 tiles, so that no n-by-n
    temporary is made and each transposed tile stays in cache."""
    n, tile = len(adj), 512
    return all(np.array_equal(adj[i:i + tile, j:j + tile],
                              adj[j:j + tile, i:i + tile].T)
               for i in range(0, n, tile) for j in range(i, n, tile))


def intersection_graph(model: ArcModel) -> Graph:
    """Graph with one vertex per arc, edges between intersecting arcs."""
    n, size = model.n, model.circle_size
    starts, lengths = arc_spans(model)
    # arcs i, j intersect iff one's first gap lies within the other's range
    by_start = np.argsort(starts)
    lo, count = _points_in_spans(starts[by_start], starts, lengths, size)
    arc, at = expand_runs(lo, count, n)
    other = by_start[at]
    adj = np.zeros((n, n), dtype=bool)
    adj[arc, other] = adj[other, arc] = True
    np.fill_diagonal(adj, False)
    return Graph(n, adj)


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """Full hop-distance matrix (UNREACHABLE for disconnected pairs).

    A breadth-first search from every source at once: level 1 is the
    adjacency, and level l is ``(F @ A > 0) & unseen`` for the level l-1
    frontier ``F``, one float32 product per level.  Every entry is 0 or 1,
    so the sums are exact integers for any n < 2**24.  The search stops
    when every pair is seen or the frontier is empty.

    A level costs n**3 multiply-adds, scipy's BFS from every source about
    n * (n + 2m) steps, so a long diameter makes the frontier the slower
    one.  Level l runs only while ``l * n**2 <= FRONTIER_WORK * (n + 2m)``;
    once the rule fails, the levels done are dropped and scipy's
    ``shortest_path`` computes the matrix.  Both read only the graph.

    ``FRONTIER_WORK`` is 8, measured on a 2-core x86_64 machine (numpy
    2.4 with OpenBLAS, scipy 1.17).  One float32 multiply-add takes 1/230
    (n = 200) to 1/1300 (n = 2000) of the time of one scipy BFS step, but
    a level also makes six passes over n**2 cells and eight numpy calls,
    which dominate at small n.  With 8, the levels that may run before a
    hand-over cost at most about 5 % of scipy's time (dense random
    n = 64), where 32 would allow 25 %; a diameter-2 graph stays on the
    frontier when m is at least about n**2 / 8.
    """
    dist = _frontier_distances(graph)
    return _scipy_distances(graph) if dist is None else dist


# frontier work allowed per scipy BFS step; see ``all_pairs_distances``
FRONTIER_WORK = 8


def _frontier_distances(graph: Graph) -> np.ndarray | None:
    """The frontier search of ``all_pairs_distances``, or None once its
    cost rule hands over to scipy."""
    n, adj = graph.n, graph.adj
    budget = FRONTIER_WORK * (n + 2 * graph.m)
    reached = n + 2 * graph.m  # pairs at hop distance 0 or 1
    level, grew, dist = 1, graph.m > 0, None
    while grew and reached < n * n:
        level += 1
        if level * n * n > budget:
            return None
        if dist is None:  # the first product: set up from level 1
            dist = _level_one(adj)
            unseen, new = dist < 0, np.empty(adj.shape, dtype=bool)
            frontier = a32 = adj.astype(np.float32)
            spare = None
        # float32 buffers: the adjacency and at most two frontiers
        product = np.matmul(frontier, a32, out=spare)
        np.greater(product, 0, out=new)
        new &= unseen
        unseen ^= new
        dist[new] = level
        product[...] = new
        spare = None if frontier is a32 else frontier
        frontier = product
        count = np.count_nonzero(new)
        reached += count
        grew = count > 0
    return _level_one(adj) if dist is None else dist


def _level_one(adj: np.ndarray) -> np.ndarray:
    dist = np.full(adj.shape, UNREACHABLE, dtype=np.int64)
    dist[adj] = 1
    np.fill_diagonal(dist, 0)
    return dist


def _scipy_distances(graph: Graph) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    mat = csr_matrix(graph.adj)
    # Graph holds a symmetric adjacency, so scipy need not symmetrise it
    dist = shortest_path(mat, method="D", unweighted=True, directed=True)
    # mark and cast a block of rows at a time into the float64 result's
    # own buffer, so no n-by-n temporary is made beside it
    out = dist.view(np.int64)
    step = max(1, _CAST_CELLS // max(graph.n, 1))
    for i in range(0, graph.n, step):
        rows = dist[i:i + step]
        rows[np.isinf(rows)] = UNREACHABLE
        out[i:i + step] = rows.astype(np.int64)
    return out


# cells marked and cast at once when the scipy result becomes int64
_CAST_CELLS = 1 << 16
