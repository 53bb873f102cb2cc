"""Graphs with dense vertex ids and their all-pairs hop distances.

The oracle half reads a circular-arc graph only through this module: a
``Graph`` is a read-only boolean adjacency, and ``all_pairs_distances``
searches it breadth-first from every source at once.  Nothing here knows
arcs or cliques.
"""

from __future__ import annotations

import numpy as np

from .ring_order import is_id

UNREACHABLE = -1


class Graph:
    """Undirected graph with dense ids, immutable after construction.

    Keeps a boolean adjacency matrix so that hot paths get O(1) adjacency
    tests; fine for the n <= a few thousand instances this package
    targets.  A vertex's sorted neighbors are ``np.flatnonzero(adj[v])``.

    The caller hands ``adj`` over: the graph keeps a read-only view of it,
    not a copy, so the array must not be written afterwards.  ``adj`` and
    ``degrees`` are read-only, so that ``m`` and the checks cached on the
    graph stay true.
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
        self.adj, self.degrees = adj.view(), adj.sum(axis=1).astype(np.int64)
        self.adj.flags.writeable = self.degrees.flags.writeable = False
        self.m = int(self.degrees.sum()) // 2


def _is_symmetric(adj: np.ndarray) -> bool:
    """``adj == adj.T``, compared in 512 x 512 tiles, so that no n-by-n
    temporary is made and each transposed tile stays in cache."""
    n, tile = len(adj), 512
    return all(np.array_equal(adj[i:i + tile, j:j + tile],
                              adj[j:j + tile, i:i + tile].T)
               for i in range(0, n, tile) for j in range(i, n, tile))

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
    level, count, dist = 1, graph.m, None
    while count > 0 and reached < n * n:
        level += 1
        if level * n * n > budget:
            return None
        if dist is None:  # the first product: set up from level 1
            dist = _level_one(adj)
            unseen = dist < 0
            frontier = a32 = adj.astype(np.float32)
        new = frontier @ a32 > 0
        new &= unseen
        unseen ^= new
        dist[new] = level
        count = np.count_nonzero(new)
        reached += count
        frontier = new.astype(np.float32)
        del new  # else it would sit beside the next product and its mask
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
