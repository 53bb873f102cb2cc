import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcroute import CyclicOrder
from arcroute.builder import _join_runs
from arcroute.errors import ConstructionError
from arcroute.ring_order import expand_runs
from conftest import ref_ring_sequence

orders = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(CyclicOrder)


@pytest.mark.parametrize("items", [[1.9, 0], [True, 0], [0, False], [0.0, 1],
                                   [np.float64(1), 0], ["1", 0], [np.True_, 0]])
def test_order_rejects_items_that_are_not_integers(items):
    # int() used to truncate 1.9 and read True as 1, so both loaded as (1, 0)
    with pytest.raises(ValueError, match="permutation of 0..1"):
        CyclicOrder(items)


def test_order_accepts_numpy_integers_and_stores_read_only_int64_arrays():
    order = CyclicOrder(np.array([2, 0, 1], dtype=np.int32))
    assert order.items.tolist() == [2, 0, 1]
    assert order.pos.tolist() == [1, 2, 0]
    for array in (order.items, order.pos):
        assert array.dtype == np.int64 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    # the order copies its input, so the caller's array stays writable
    raw = np.array([1, 0])
    assert CyclicOrder(raw) == CyclicOrder([1, 0]) and raw.flags.writeable
    assert CyclicOrder([0, 1]) != CyclicOrder([1, 0])
    assert repr(CyclicOrder(raw)) == "CyclicOrder([1, 0])"


def successor(order, x):
    """The element after ``x`` clockwise, read off the two arrays."""
    return int(order.items[(order.pos[x] + 1) % order.n])


def test_successor_single_element_is_fixed_point():
    order = CyclicOrder([0])
    assert successor(order, 0) == 0


def test_successor_wraps_around():
    order = CyclicOrder([0, 1, 2, 3])
    assert successor(order, 3) == 0
    assert ref_ring_sequence(order, 3, 0) == [3, 0]


def test_successor_four_times_returns_to_start():
    order = CyclicOrder([0, 1, 2, 3])
    x = 1
    for _ in range(4):
        x = successor(order, x)
    assert x == 1


def test_successor_unknown_element():
    # the arrays are not guarded; the ring_sequence reference checks its
    # ends itself
    order = CyclicOrder([0, 1, 2])
    with pytest.raises(ValueError, match="not an id"):
        ref_ring_sequence(order, 7, 0)


@pytest.mark.parametrize("x", [-1, -3, 3, True, False, None, "1", 1.0, np.bool_(True)])
def test_position_rejects_anything_but_an_element_id(x):
    # a negative id used to index from the end, and a boolean as 0 / 1
    order = CyclicOrder([0, 1, 2])
    for a, b in ((x, 0), (0, x)):
        with pytest.raises(ValueError, match="not an id"):
            ref_ring_sequence(order, a, b)


def test_negative_ids_are_unknown_to_every_position_reader():
    order = CyclicOrder([0, 1, 2])
    for a, b in ((-1, 0), (0, -1), (-1, -1)):
        with pytest.raises(ValueError, match="-1"):
            ref_ring_sequence(order, a, b)


def test_position_accepts_numpy_integers():
    order = CyclicOrder([2, 0, 1])
    assert order.pos[np.int64(1)] == 2
    assert ref_ring_sequence(order, np.int32(2), np.uint8(1)) == [2, 0, 1]


def test_ring_sequence_base_case():
    order = CyclicOrder([0, 1, 2, 3])
    assert ref_ring_sequence(order, 0, 0) == [0]


def test_ring_sequence_wraps():
    order = CyclicOrder([0, 1, 2, 3])
    assert ref_ring_sequence(order, 3, 1) == [3, 0, 1]


def test_ring_sequence_almost_full_circle():
    # expanding one step at a time from 1 back around to 0 walks the
    # entire order exactly once
    order = CyclicOrder([0, 1, 2, 3])
    assert ref_ring_sequence(order, 1, 0) == [1, 2, 3, 0]


def join(items, rows):
    """``_join_runs`` on (source, target, offset, length) rows over the
    order ``items``, back as (source, target, start position, length).
    Every other vertex sends offsets 1 .. n - 1 to its successor, so that
    the join's shape check passes, and those rows are left out."""
    n = len(items)
    pos = np.argsort(np.asarray(items, dtype=np.int64))
    sources = {v for v, _, _, _ in rows}
    rows = list(rows) + [(v, items[(i + 1) % n], 1, n - 1)
                         for i, v in enumerate(items) if v not in sources]
    cols = [np.array(col, dtype=np.int64) for col in zip(*rows)]
    joined = [tuple(map(int, row)) for row in zip(*_join_runs(pos, *cols))]
    return [row for row in joined if row[0] in sources]


def destinations(items, rows, starts_are_offsets):
    """Destination -> target of every (source, target, start, length) row."""
    n = len(items)
    pos = {v: i for i, v in enumerate(items)}
    src, dst, start, length = (np.array(col, dtype=np.int64) for col in zip(*rows))
    if starts_are_offsets:
        start = (np.array([pos[v] for v in src.tolist()]) + start) % n
    run, positions = expand_runs(start, length, n)
    got = {}
    for i, p in zip(run.tolist(), positions.tolist()):
        key = (int(src[i]), items[p])
        assert key not in got
        got[key] = int(dst[i])
    return got


def test_join_adjacent_singletons():
    # abutting runs of one arc join, whichever comes first in the input;
    # offsets count clockwise from the source, and a run to another target
    # covers the offsets left over
    assert join(range(4), [(0, 1, 1, 1), (0, 1, 2, 1), (0, 3, 3, 1)]) == [
        (0, 1, 1, 2), (0, 3, 3, 1)]
    assert join(range(4), [(0, 1, 2, 1), (0, 1, 1, 1), (0, 3, 3, 1)]) == [
        (0, 1, 1, 2), (0, 3, 3, 1)]
    # from source 2, offsets 1, 2 and 3 are positions 3, 0 and 1
    assert join(range(4), [(2, 3, 2, 1), (2, 3, 1, 1), (2, 1, 3, 1)]) == [
        (2, 1, 1, 1), (2, 3, 3, 2)]
    # a different target or a gap keeps runs apart
    assert join(range(4), [(0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1)]) == [
        (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1)]
    assert join(range(4), [(0, 1, 1, 1), (0, 1, 3, 1), (0, 2, 2, 1)]) == [
        (0, 1, 1, 1), (0, 1, 3, 1), (0, 2, 2, 1)]
    # on an order of one vertex no rows tile the empty set of destinations
    empty = np.empty(0, dtype=np.int64)
    assert [len(col) for col in _join_runs(np.arange(1), *[empty] * 4)] == [0] * 4


def compositions(total):
    """Every way to cut offsets 1 .. total into consecutive runs, as
    (offset, length) lists."""
    for mask in range(2 ** max(total - 1, 0)):
        cuts = [1] + [c + 2 for c in range(total - 1) if mask >> c & 1] + [total + 1]
        yield [(a, b - a) for a, b in zip(cuts, cuts[1:])]


def test_join_member_sets_exhaustively():
    # every tiling of one source's offsets by runs with every choice of
    # targets, orders up to 6, sources at every position in turn; a tiling
    # whose joined runs put three on one arc, or two on two arcs, is refused
    cases = 0
    refused = Counter()
    for n in range(2, 7):
        items = list(reversed(range(n)))
        for runs in compositions(n - 1):
            for targets in itertools.product(range(n - 1), repeat=len(runs)):
                v = items[cases % n]
                others = [w for w in items if w != v]
                rows = [(v, others[t], a, ln) for t, (a, ln) in zip(targets, runs)]
                cases += 1
                # runs of one target at consecutive offsets join
                per_arc = list(Counter(t for t, _ in itertools.groupby(targets)).values())
                message = ("an arc carries more than two" if max(per_arc) > 2 else
                           "more than one outgoing arc carries two"
                           if per_arc.count(2) > 1 else None)
                if message:
                    refused[message] += 1
                    with pytest.raises(ConstructionError, match=message) as info:
                        join(items, rows[::-1])
                    assert info.value.vertex == v
                    continue
                joined = join(items, rows[::-1])
                assert destinations(items, joined, False) == destinations(items, rows, True)
                ends = {(s + ln) % n: w for _, w, s, ln in joined}
                assert all(ends.get(s) != w for _, w, s, _ in joined)
                arcs = [(s, w) for s, w, _, _ in joined]
                assert arcs == sorted(arcs)
                # of the two runs of an arc, the one that holds the target
                # comes first
                holds = [(items.index(w) - s) % n < ln for _, w, s, ln in joined]
                assert not any(arcs[i] == arcs[i + 1] and holds[i + 1] and not holds[i]
                               for i in range(len(arcs) - 1))
    # m (m + 1) ** (m - 1) cases for m = n - 1 offsets
    assert cases == 1 + 6 + 48 + 500 + 6480
    assert min(refused.values()) >= 50 and len(refused) == 2, refused


@given(st.integers(min_value=4, max_value=9), st.data())
def test_join_chain_is_associative_on_member_sets(n, data):
    # a chain of three abutting runs of one arc (so at least three offsets,
    # n >= 4) joins to one run, whatever order the rows come in
    cuts = sorted(data.draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), min_size=3,
                 max_size=3, unique=True)
    ))
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    w = (v + 1) % n
    pieces = [(v, w, a, b - a) for a, b in zip(cuts, cuts[1:] + [n])]
    expected = [(v, w, (v + cuts[0]) % n, n - cuts[0])]
    if cuts[0] > 1:
        # another target covers the offsets before the chain
        pieces.append((v, (v + 2) % n, 1, cuts[0] - 1))
        expected = sorted(expected + [(v, (v + 2) % n, w, cuts[0] - 1)])
    rows = data.draw(st.permutations(pieces))
    assert join(range(n), rows) == expected


def test_join_puts_the_run_holding_the_target_first():
    # from source 0 on the order 0..4, arc (0, 3) carries offset 1 and
    # offset 3; the run at offset 3 holds vertex 3 and comes first
    rows = [(0, 3, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (0, 4, 4, 1)]
    assert join(range(5), rows) == [(0, 2, 2, 1), (0, 3, 3, 1), (0, 3, 1, 1), (0, 4, 4, 1)]
    # from source 3 the offsets 1 .. 4 wrap past position 0 to 4 0 1 2
    rows = [(3, 1, 1, 1), (3, 0, 2, 1), (3, 1, 3, 2)]
    assert join(range(5), rows) == [(3, 0, 0, 1), (3, 1, 1, 2), (3, 1, 4, 1)]


@given(orders, st.data())
def test_sequence_length_formula(order, data):
    a = data.draw(st.sampled_from(order.items.tolist()))
    b = data.draw(st.sampled_from(order.items.tolist()))
    seq = ref_ring_sequence(order, a, b)
    assert len(seq) == (order.pos[b] - order.pos[a]) % order.n + 1
    assert seq[0] == a and seq[-1] == b


def test_expand_runs_matches_ring_sequence_exhaustively():
    # every (start, length) run for orders up to 7 elements, expanded in
    # one call and compared run by run
    for n in range(1, 8):
        order = CyclicOrder(reversed(range(n)))
        runs = [(s, ln) for s in range(n) for ln in range(1, n + 1)]
        run, positions = expand_runs([s for s, _ in runs],
                                     [ln for _, ln in runs], n)
        assert run.tolist() == sorted(run.tolist())
        for i, (s, ln) in enumerate(runs):
            got = order.items[positions[run == i]].tolist()
            assert got == ref_ring_sequence(order, order.items[s],
                                            order.items[(s + ln - 1) % n])
    assert [len(rows) for rows in expand_runs([], [], 5)] == [0, 0]


def test_bijection_invariant():
    order = CyclicOrder([2, 0, 3, 1])
    assert (order.items[order.pos] == np.arange(4)).all()
    assert (order.pos[order.items] == np.arange(4)).all()


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        CyclicOrder([0, 0, 1])
    with pytest.raises(ValueError):
        CyclicOrder([1, 2, 3])


@pytest.mark.parametrize("items", [
    np.array([[0, 1], [1, 0]]), np.array([0, 0, 1]), np.array([1, 2, 3]),
    np.array([2 ** 64 - 1, 0], dtype=np.uint64), [2 ** 70, 0],
    np.array([True, False]), np.array([1.0, 0.0])])
def test_order_rejects_arrays_and_ids_that_are_not_a_permutation(items):
    # an integer array skips the per-element check, so its range and
    # shape are checked on the array; a wide id fails the range test
    with pytest.raises(ValueError, match="permutation of 0..1|permutation of 0..2"):
        CyclicOrder(items)
