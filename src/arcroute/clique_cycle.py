"""Clique-cycle of an arc model.

Every gap of the circle induces a point-clique (the arcs covering it).
The clique-cycle keeps the point-cliques that are maximal under inclusion,
deduplicated by member set and ordered clockwise by their first gap.  Each
vertex then owns a contiguous run of these cliques, its geometric clique
run; the run's two ends are the vertex's left and right clique, and those
spans drive everything the scheme builder does.

Only a vertex adjacent to all others can own a run of all k cliques, but
such a vertex may own a shorter run too.  Following the construction, the
vertex order ignores the runs of these all-adjacent vertices and places
them together, in id order, at the end of the block of clique ``1 % k``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .arc_model import ArcModel, Graph, gap_coverage, intersection_graph
from .errors import ConstructionError, NotRealCircularArc


class CliqueCycle:
    __slots__ = ("model", "graph", "anchors", "left", "right", "span_len",
                 "dominating", "_counter")

    def __init__(self, model: ArcModel, graph: Graph, anchors: list[int],
                 left: np.ndarray, right: np.ndarray, span_len: np.ndarray):
        self.model = model
        self.graph = graph
        self.anchors = np.asarray(anchors, dtype=np.int64)
        self.left = left
        self.right = right
        self.span_len = span_len
        self.dominating = graph.degrees == graph.n - 1
        self._counter: np.ndarray | None = None

    @property
    def k(self) -> int:
        """Number of cliques on the cycle."""
        return len(self.anchors)

    def members(self, clique: int) -> tuple[int, ...]:
        """Vertices of a clique (arcs covering its anchor gap)."""
        gap = int(self.anchors[clique])
        return tuple(v for v in range(self.model.n)
                     if self.model.covers_gap(v, gap))

    def counter_matrix(self) -> np.ndarray:
        """Boolean n-by-n matrix of counter pairs, computed once.

        ``u`` and ``v`` form a counter pair when they are adjacent and
        their shared clique run splits in two pieces (arcs overlapping at
        both ends of the circle): neither run is the whole cycle, the runs
        start at different cliques, and each holds the other's start.
        """
        if self._counter is None:
            k = self.k
            lc = self.left
            ln = self.span_len
            rel = (lc[None, :] - lc[:, None]) % k
            contains = rel < ln[:, None]  # contains[u, v]: u's run holds v's left clique
            proper = ln < k
            self._counter = (
                contains & contains.T
                & (lc[:, None] != lc[None, :])
                & proper[:, None] & proper[None, :]
                & self.graph.adj
            )
            self._counter.flags.writeable = False  # shared by every caller
        return self._counter

    def dump(self) -> str:
        """Debug text: cliques in cyclic order, then per-vertex spans."""
        lines = []
        for c in range(self.k):
            body = ", ".join(str(v) for v in self.members(c))
            lines.append(f"{c}: {{{body}}}")
        for v in range(self.model.n):
            lines.append(f"{v}: lc={int(self.left[v])} rc={int(self.right[v])}")
        return "\n".join(lines)

    def validate(self) -> None:
        """Exhaustive invariant check; O(n * k), intended for tests."""
        k = self.k
        if k > self.model.circle_size:
            raise ConstructionError(f"{k} cliques exceed the 2n bound")
        member_sets = [frozenset(self.members(c)) for c in range(k)]
        for a in range(k):
            for b in range(k):
                if a != b and member_sets[a] <= member_sets[b]:
                    raise ConstructionError(f"clique {a} not maximal (inside {b})")
        for v in range(self.model.n):
            run = {c for c in range(k) if v in member_sets[c]}
            expected = {(int(self.left[v]) + i) % k
                        for i in range(int(self.span_len[v]))}
            if run != expected:
                raise ConstructionError(
                    f"clique run of vertex {v} is not the ring-interval "
                    f"[{self.left[v]}, {self.right[v]}]"
                )


def build_clique_cycle(model: ArcModel, graph: Graph | None = None) -> CliqueCycle:
    """Derive the clique-cycle of a circle-covering model.

    Raises NotRealCircularArc when some gap is uncovered (interval-graph
    models are out of scope for the scheme construction).  The per-gap
    coverage serves both that check and as the point-clique sizes.
    """
    sizes = gap_coverage(model)
    if not (sizes > 0).all():
        raise NotRealCircularArc("arcs do not cover the whole circle")
    if graph is None:
        graph = intersection_graph(model)

    n = model.n
    size = model.circle_size
    spans = [model.gap_span(i) for i in range(n)]

    # a gap opened by an arc start and closed by an arc end holds one arc
    # more than both neighbours; any other gap has a neighbour holding its
    # arcs plus one, so only these gaps can carry a maximal clique
    opens = np.zeros(size, dtype=bool)
    opens[[s for s, _ in model.arcs]] = True
    candidates = np.flatnonzero(opens & ~np.roll(opens, -1)).tolist()
    anchors = _exact_maximal_anchors(model, spans, sizes, candidates)

    anchor_arr = sorted(anchors)
    k = len(anchor_arr)
    left = np.zeros(n, dtype=np.int64)
    right = np.zeros(n, dtype=np.int64)
    span_len = np.zeros(n, dtype=np.int64)
    doubled = anchor_arr + [a + size for a in anchor_arr]
    for v in range(n):
        s, length = spans[v]
        lo = bisect_left(doubled, s)
        hi = bisect_right(doubled, s + length - 1)
        count = hi - lo
        if count < 1:
            raise ConstructionError(
                f"arc {v} covers no maximal clique anchor", vertex=v
            )
        count = min(count, k)
        left[v] = lo % k
        right[v] = (lo + count - 1) % k
        span_len[v] = count

    return CliqueCycle(model, graph, anchor_arr, left, right, span_len)


def _gap_masks(model, spans, gaps: list[int]) -> list[int]:
    """Member bitmask of each requested gap, via one sweep of the circle."""
    size = model.circle_size
    wanted = set(gaps)
    add_at: list[list[int]] = [[] for _ in range(size)]
    drop_at: list[list[int]] = [[] for _ in range(size)]
    mask = 0
    for a, (s, length) in enumerate(spans):
        if (0 - s) % size < length:
            mask |= 1 << a
        if s != 0:
            add_at[s].append(a)
        drop_at[(s + length) % size].append(a)

    out: dict[int, int] = {}
    for g in range(size):
        if g > 0:
            for a in drop_at[g]:
                mask &= ~(1 << a)
            for a in add_at[g]:
                mask |= 1 << a
        if g in wanted:
            out[g] = mask
    return [out[g] for g in gaps]


def _exact_maximal_anchors(model, spans, sizes: np.ndarray,
                           candidates: list[int]) -> list[int]:
    """Exact inclusion filter on the candidate gaps, by member bitmask.

    Candidates are deduplicated (first gap per member set wins), ordered
    by decreasing clique size, and each is tested against the already
    accepted cliques; transitivity makes testing against accepted maximal
    sets sufficient.
    """
    masks = _gap_masks(model, spans, candidates)
    first_of_mask: dict[int, int] = {}
    for g, mask in zip(candidates, masks):
        first_of_mask.setdefault(mask, g)
    distinct = sorted(first_of_mask.items(),
                      key=lambda item: (-int(sizes[item[1]]), item[1]))

    n = model.n
    words = (n + 63) // 64
    word_mask = (1 << 64) - 1

    def to_words(mask: int) -> list[int]:
        return [(mask >> (64 * w)) & word_mask for w in range(words)]

    accepted_sizes: list[int] = []
    anchors: list[int] = []
    arr = np.empty((len(distinct), words), dtype=np.uint64)
    filled = 0
    for mask, g in distinct:
        size_g = int(sizes[g])
        row = np.array(to_words(mask), dtype=np.uint64)
        # only strictly larger accepted cliques can strictly contain this one
        upper = 0
        while upper < filled and accepted_sizes[upper] > size_g:
            upper += 1
        if upper:
            outside = (row[None, :] & ~arr[:upper]) != 0
            if not outside.any(axis=1).all():
                continue  # some accepted clique contains every member
        arr[filled] = row
        accepted_sizes.append(size_g)
        filled += 1
        anchors.append(g)
    return sorted(anchors)
