"""Clique-cycle of an arc model.

Every gap of the circle induces a point-clique (the arcs covering it).
The clique-cycle keeps the point-cliques that are maximal under inclusion,
deduplicated by member set and ordered clockwise by their first gap.  Each
vertex then owns a contiguous run of these cliques; the run's two ends are
the vertex's left and right clique, and those spans drive everything the
scheme builder does.

Vertices adjacent to all others have no canonical span: the whole cycle
contains them.  Following the construction they are all pinned to the same
span ``(successor(z), z)`` with ``z`` the clique at the lowest gap, which
keeps them in one block of the vertex order.  The pinned span is what
``left/right`` report; ``nat_left/nat_right`` keep the geometric run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .arc_model import ArcModel, Graph, gap_coverage, intersection_graph
from .errors import ConstructionError, NotRealCircularArc, UndefinedComparisonError
from .ring_order import CyclicOrder, ring_sequence

FURTHER = "further"
EQUAL = "equal"
LESS = "less"


class CliqueCycle:
    __slots__ = (
        "model", "graph", "order", "anchors",
        "nat_left", "nat_right", "nat_len",
        "left", "right", "span_len",
        "dominating", "dominating_set", "z",
        "_members_cache", "_counter",
    )

    def __init__(self, model: ArcModel, graph: Graph, anchors: list[int],
                 nat_left: np.ndarray, nat_right: np.ndarray, nat_len: np.ndarray):
        self.model = model
        self.graph = graph
        self.anchors = np.asarray(anchors, dtype=np.int64)
        k = len(anchors)
        self.order = CyclicOrder(range(k))
        self.nat_left = nat_left
        self.nat_right = nat_right
        self.nat_len = nat_len
        self.dominating = graph.degrees == graph.n - 1
        self.dominating_set = {int(v) for v in np.flatnonzero(self.dominating)}
        # all-adjacent vertices get one shared span ending at the lowest clique
        self.z = 0
        self.left = nat_left.copy()
        self.right = nat_right.copy()
        self.left[self.dominating] = 1 % k
        self.right[self.dominating] = 0
        self.span_len = (self.right - self.left) % k + 1
        self.span_len[self.dominating] = k
        self._members_cache: dict[int, tuple[int, ...]] = {}
        self._counter: np.ndarray | None = None

    @property
    def k(self) -> int:
        """Number of cliques on the cycle."""
        return len(self.anchors)

    def members(self, clique: int) -> tuple[int, ...]:
        """Vertices of a clique (arcs covering its anchor gap)."""
        cached = self._members_cache.get(clique)
        if cached is None:
            gap = int(self.anchors[clique])
            cached = tuple(
                v for v in range(self.model.n) if self.model.covers_gap(v, gap)
            )
            self._members_cache[clique] = cached
        return cached

    def natural_contains(self, v: int, clique: int) -> bool:
        """Geometric membership: clique lies in the vertex's clique run."""
        return (clique - self.nat_left[v]) % self.k < self.nat_len[v]

    def span_contains(self, v: int, clique: int) -> bool:
        """Membership per the pinned spans (differs only for all-adjacent v)."""
        return (clique - self.left[v]) % self.k < self.span_len[v]

    def counter_matrix(self) -> np.ndarray:
        """Boolean n-by-n matrix of counter pairs, computed once.

        ``u`` and ``v`` form a counter pair when they are adjacent and
        their shared clique run splits in two pieces (arcs overlapping at
        both ends of the circle): neither run is the whole cycle, the runs
        start at different cliques, and each holds the other's start.
        """
        if self._counter is None:
            k = self.k
            lc = self.nat_left
            ln = self.nat_len
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
            expected = set(
                ring_sequence(self.order, int(self.nat_left[v]), int(self.nat_right[v]))
            )
            if run != expected:
                raise ConstructionError(
                    f"clique run of vertex {v} is not the ring-interval "
                    f"[{self.nat_left[v]}, {self.nat_right[v]}]"
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
    nat_left = np.zeros(n, dtype=np.int64)
    nat_right = np.zeros(n, dtype=np.int64)
    nat_len = np.zeros(n, dtype=np.int64)
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
        nat_left[v] = lo % k
        nat_right[v] = (lo + count - 1) % k
        nat_len[v] = count

    return CliqueCycle(model, graph, anchor_arr, nat_left, nat_right, nat_len)


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


def counter_vertices(cycle: CliqueCycle, graph: Graph, v: int) -> set[int]:
    """Neighbors of ``v`` whose shared clique run splits in two pieces."""
    counter = cycle.counter_matrix()[v]
    return {int(w) for w in graph.neighbors[v] if counter[w]}


def _check_comparable(cycle: CliqueCycle, v: int, w: int, at: int) -> None:
    if not (cycle.span_contains(v, at) and cycle.span_contains(w, at)):
        raise UndefinedComparisonError(
            f"vertices {v}, {w} are not both in clique {at}"
        )
    if cycle.counter_matrix()[v, w]:
        raise UndefinedComparisonError(
            f"reach of counter vertices {v}, {w} is incomparable"
        )


def reaches_further_left(cycle: CliqueCycle, v: int, w: int, at: int) -> str:
    """How far ``v`` reaches counterclockwise from clique ``at`` versus ``w``.

    Returns FURTHER / EQUAL / LESS for v's reach relative to w's.
    """
    _check_comparable(cycle, v, w, at)
    k = cycle.k
    dv = (at - cycle.left[v]) % k
    dw = (at - cycle.left[w]) % k
    if dv > dw:
        return FURTHER
    if dv == dw:
        return EQUAL
    return LESS


def reaches_further_right(cycle: CliqueCycle, v: int, w: int, at: int) -> str:
    """Clockwise analogue of reaches_further_left."""
    _check_comparable(cycle, v, w, at)
    k = cycle.k
    dv = (cycle.right[v] - at) % k
    dw = (cycle.right[w] - at) % k
    if dv > dw:
        return FURTHER
    if dv == dw:
        return EQUAL
    return LESS
