import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcroute import CyclicOrder, ring_sequence
from arcroute.builder import _join_chunks
from arcroute.errors import UnknownElementError
from arcroute.ring_order import expand_runs

orders = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(CyclicOrder)


def test_successor_single_element_is_fixed_point():
    order = CyclicOrder([0])
    assert order.successor(0) == 0


def test_successor_wraps_around():
    order = CyclicOrder([0, 1, 2, 3])
    assert order.successor(3) == 0


def test_successor_four_times_returns_to_start():
    order = CyclicOrder([0, 1, 2, 3])
    x = 1
    for _ in range(4):
        x = order.successor(x)
    assert x == 1


def test_successor_unknown_element():
    order = CyclicOrder([0, 1, 2])
    with pytest.raises(UnknownElementError):
        order.successor(7)


def test_ring_sequence_base_case():
    order = CyclicOrder([0, 1, 2, 3])
    assert ring_sequence(order, 0, 0) == [0]


def test_ring_sequence_wraps():
    order = CyclicOrder([0, 1, 2, 3])
    assert ring_sequence(order, 3, 1) == [3, 0, 1]


def test_ring_sequence_almost_full_circle():
    # expanding one step at a time from 1 back around to 0 walks the
    # entire order exactly once
    order = CyclicOrder([0, 1, 2, 3])
    assert ring_sequence(order, 1, 0) == [1, 2, 3, 0]


def run_members(n, run):
    return set(expand_runs([run[0]], [run[1]], n)[1].tolist())


def test_join_adjacent_singletons():
    # runs are (start position, length); either argument may come first
    assert _join_chunks(4, (1, 1), (2, 1)) == (1, 2)
    assert _join_chunks(4, (2, 1), (1, 1)) == (1, 2)
    assert _join_chunks(4, (3, 1), (0, 1)) == (3, 2)


def test_join_rejects_overlap():
    assert _join_chunks(4, (0, 2), (1, 2)) is None


def test_join_member_sets_exhaustively():
    # all pairs of runs that fit on the ring together, orders up to 6
    for n in range(2, 7):
        runs = [(s, ln) for s in range(n) for ln in range(1, n)]
        for left, right in itertools.product(runs, repeat=2):
            if left[1] + right[1] > n:
                continue
            ms_left, ms_right = run_members(n, left), run_members(n, right)
            result = _join_chunks(n, left, right)
            abut = ((left[0] + left[1]) % n == right[0]
                    or (right[0] + right[1]) % n == left[0])
            if not abut:
                assert result is None
            else:
                assert not ms_left & ms_right
                assert result[1] == left[1] + right[1]
                assert run_members(n, result) == ms_left | ms_right


@given(st.integers(min_value=3, max_value=9), st.data())
def test_join_chain_is_associative_on_member_sets(n, data):
    # a chain of adjacent disjoint runs joins to the same member set
    # regardless of association order
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=3,
                 max_size=3, unique=True)
    )
    cuts.sort()
    pieces = [(cuts[i], (cuts[(i + 1) % 3] - cuts[i]) % n) for i in range(3)]
    left_first = _join_chunks(n, _join_chunks(n, pieces[0], pieces[1]), pieces[2])
    right_first = _join_chunks(n, pieces[0], _join_chunks(n, pieces[1], pieces[2]))
    # three pieces tile the whole order, so both joins give the full circle
    assert left_first is not None and right_first is not None
    assert run_members(n, left_first) == set(range(n))
    assert run_members(n, right_first) == set(range(n))


@given(orders, st.data())
def test_sequence_length_formula(order, data):
    a = data.draw(st.sampled_from(order.items))
    b = data.draw(st.sampled_from(order.items))
    seq = ring_sequence(order, a, b)
    assert len(seq) == order.distance(a, b) + 1
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
            got = [order.at(p) for p in positions[run == i].tolist()]
            assert got == ring_sequence(order, order.at(s), order.at(s + ln - 1))
    assert [len(rows) for rows in expand_runs([], [], 5)] == [0, 0]


def test_bijection_invariant():
    order = CyclicOrder([2, 0, 3, 1])
    for i, x in enumerate(order.items):
        assert order.position(x) == i


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        CyclicOrder([0, 0, 1])
    with pytest.raises(ValueError):
        CyclicOrder([1, 2, 3])
