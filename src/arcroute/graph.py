"""Graphs with dense vertex ids and their all-pairs hop distances.

The oracle half reads a circular-arc graph only through this module: a
``Graph`` is a read-only sorted edge list, and ``all_pairs_distances``
searches it breadth-first from every source at once.  Nothing here knows
arcs or cliques.
"""

from __future__ import annotations

import numpy as np

from .ring_order import is_id

UNREACHABLE = -1

MAX_VERTICES = 3037000499  # the largest n whose keys u * n + v fit in int64


class Graph:
    """Undirected graph with dense ids, immutable after construction.

    Takes every edge once in each direction, as ``np.nonzero`` of a
    symmetric matrix or ``intersection_edges`` list them, and keeps edge
    (u, v) as the sorted key ``u * n + v``, its row-major cell.  Row v is
    ``keys[indptr[v]:indptr[v + 1]]``, v's neighbours that slice minus
    ``v * n``.  The arrays are read-only, so ``m`` and cached checks hold.
    """

    __slots__ = ("n", "m", "keys", "indptr", "degrees")

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        if not (is_id(n) and 0 <= n <= MAX_VERTICES):
            raise ValueError(f"vertex count must be an int in 0..{MAX_VERTICES}, "
                             f"got {n!r}")
        # bools would read as ids 0 and 1, and floats be cut to ints
        if not (all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"
                    and np.can_cast(a.dtype, np.int64) for a in (src, dst))
                and len(src) == len(dst)):
            raise ValueError("edges must be two 1-D integer arrays of equal length")
        n = int(n)
        if any(len(a) and not 0 <= a.min() <= a.max() < n for a in (src, dst)):
            raise ValueError(f"edge ends must be vertex ids in 0..{n - 1}")
        if (src == dst).any():
            raise ValueError("self-loops are not allowed")
        keys, back = (np.sort(u.astype(np.int64) * n + v)
                      for u, v in ((src, dst), (dst, src)))
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("an edge is listed twice")
        if not np.array_equal(keys, back):
            raise ValueError("adjacency must be symmetric")
        self.n, self.m, self.keys = n, len(keys) // 2, keys
        self.indptr = keys.searchsorted(np.arange(n + 1, dtype=np.int64) * n)
        self.degrees = np.diff(self.indptr)
        for a in (self.keys, self.indptr, self.degrees):
            a.flags.writeable = False


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
    n = graph.n
    budget = FRONTIER_WORK * (n + 2 * graph.m)
    reached = n + 2 * graph.m  # pairs at hop distance 0 or 1
    level, count, dist = 1, graph.m, None
    while count > 0 and reached < n * n:
        level += 1
        if level * n * n > budget:
            return None
        if dist is None:  # the first product: set up from level 1
            dist = _level_one(graph)
            unseen = dist < 0
            frontier = a32 = (dist > 0).astype(np.float32)
        new = frontier @ a32 > 0
        new &= unseen
        unseen ^= new
        dist[new] = level
        count = np.count_nonzero(new)
        reached += count
        frontier = new.astype(np.float32)
        del new  # else it would sit beside the next product and its mask
    return _level_one(graph) if dist is None else dist


def _level_one(graph: Graph) -> np.ndarray:
    dist = np.full((graph.n, graph.n), UNREACHABLE, dtype=np.int64)
    np.put(dist, graph.keys, 1)  # a key is its edge's row-major cell
    np.fill_diagonal(dist, 0)
    return dist


def _scipy_distances(graph: Graph) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n, keys = graph.n, graph.keys
    mat = csr_matrix((np.ones(len(keys)), keys % n, graph.indptr), shape=(n, n))
    # Graph holds a symmetric adjacency, so scipy need not symmetrise it
    dist = shortest_path(mat, method="D", unweighted=True, directed=True)
    # mark and cast a block of rows at a time into the float64 result's
    # own buffer, so no n-by-n temporary is made beside it
    out = dist.view(np.int64)
    step = max(1, _CAST_CELLS // max(n, 1))
    for i in range(0, n, step):
        rows = dist[i:i + step]
        rows[np.isinf(rows)] = UNREACHABLE
        out[i:i + step] = rows.astype(np.int64)
    return out


# cells marked and cast at once when the scipy result becomes int64
_CAST_CELLS = 1 << 16
