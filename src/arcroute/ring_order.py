"""Cyclic orders and ring-intervals.

A cyclic order arranges ``n`` distinct element ids on a clock face as two
read-only int64 arrays that every module indexes: ``items`` (the element
at each position) and ``pos`` (the position of each element).  A
ring-interval ``[a, b]`` is the run of elements met when walking clockwise
from ``a`` to ``b``, both included.  Only the oracle does its arithmetic on
``RingInterval``; the builder and the verifier store an interval as a run
(start position, or offset from a vertex, and length) and expand runs with
``expand_runs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def is_id(x: object) -> bool:
    """An integer, Python or numpy, but not a bool (``True`` is not id 1)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def unique_keys(error: type[Exception], message: str):
    """``json.loads`` object hook that raises ``error(message)`` on a key
    given twice."""
    def hook(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            raise error(message)
        return obj
    return hook


class CyclicOrder:
    """Immutable cyclic arrangement of the dense ids ``0 .. n-1``.

    ``items[p]`` is the element at position ``p`` and ``pos[x]`` the
    position of element ``x``, so ``items[pos] == arange(n)``.  ``items``
    fixes a clockwise reading of the circle; ``items[0]`` is only an anchor
    for serialization, not a distinguished first element.
    """

    __slots__ = ("items", "pos")

    def __init__(self, items: Sequence[int]):
        # numpy would read True as 1 and cut 1.9 to 1, so anything but an
        # integer array is checked element by element
        listed = not (isinstance(items, np.ndarray) and items.dtype.kind in "iu")
        if listed:
            items = list(items)
        n = len(items)
        if n == 0:
            raise ValueError("cyclic order needs at least one element")
        bad = ValueError(f"items must be a permutation of 0..{n - 1}")
        if listed and not all(is_id(x) and 0 <= x < n for x in items):
            raise bad
        items = np.array(items, dtype=np.int64)
        if (items.ndim != 1 or ((items < 0) | (items >= n)).any()
                or (np.bincount(items, minlength=n) != 1).any()):
            raise bad
        pos = np.empty(n, dtype=np.int64)
        pos[items] = np.arange(n, dtype=np.int64)
        items.flags.writeable = pos.flags.writeable = False
        self.items, self.pos = items, pos

    @property
    def n(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CyclicOrder)
                and np.array_equal(self.items, other.items))

    def __repr__(self) -> str:
        return f"CyclicOrder({self.items.tolist()})"


@dataclass(frozen=True)
class RingInterval:
    """Directed ring-interval ``[a, b]``: a to b clockwise, both included.

    ``[a, b]`` and ``[b, a]`` differ unless ``a == b``; a singleton is
    ``[a, a]`` and the empty set is not representable (callers use ``None``).
    """

    a: int
    b: int


def expand_runs(starts, lengths, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Expand runs of order positions into (run index, position) rows.

    Run ``i`` holds the ``lengths[i]`` positions ``starts[i]``,
    ``starts[i] + 1``, ... modulo ``n``; the rows list the runs in input
    order, each one clockwise from its start.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    run = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    # row r of run i sits at starts[i] + r - (first row of run i); built in
    # place so the rows cost three int64 arrays at most
    positions = np.arange(len(run), dtype=np.int64)
    positions += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    positions %= n
    return run, positions


def _points_in_spans(points: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray, size: int):
    """First index and count of the sorted positions ``points`` that each
    span of ``lengths`` positions from ``starts`` covers, on a ring of
    ``size`` (none for a length below one); the indices run into ``points``
    written out twice, so a span may cross position 0."""
    twice = np.concatenate([points, points + size])
    lo = np.searchsorted(twice, starts)
    return lo, np.searchsorted(twice, starts + np.maximum(lengths, 0)) - lo


def ring_coverage(starts, lengths, size: int) -> np.ndarray:
    """How many spans (``lengths[i]`` positions from ``starts[i]``) cover
    each position of a ring of ``size``: one difference-array sweep over the
    ring written out twice, so a span may cross position 0."""
    coverage = np.cumsum(np.bincount(starts, minlength=2 * size)
                         - np.bincount(starts + lengths, minlength=2 * size))
    return coverage[:size] + coverage[size:]
