"""Circular-arc models, their geometry and their intersection graphs.

A model places ``n`` closed arcs on a circle with ``2n`` distinct endpoint
positions.  All geometry is integer-exact: the circle is cut into ``2n``
gaps (gap ``g`` sits between positions ``g`` and ``g+1``), arc ``(s, e)``
covers gaps ``s, s+1, ..., e-1`` modulo ``2n``, and two arcs intersect
exactly when they share a covered gap.  A build reads the edge list of
``intersection_edges``; the oracle half reads ``intersection_graph``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DegenerateArcError,
    DuplicateEndpointError,
    ModelFormatError,
    PositionOutOfRangeError,
)
# all_pairs_distances is re-exported: the benchmark calls and traces it here
from .graph import Graph, all_pairs_distances
from .ring_order import _points_in_spans, expand_runs, is_id, ring_coverage, unique_keys


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


def arc_spans(model: ArcModel) -> tuple[np.ndarray, np.ndarray]:
    """(first covered gap, number of covered gaps) of every arc, as arrays."""
    ends = np.fromiter(chain.from_iterable(model.arcs), dtype=np.int64,
                       count=model.circle_size)
    starts = ends[::2]
    return starts, (ends[1::2] - starts) % model.circle_size


def gap_coverage(model: ArcModel) -> np.ndarray:
    """Number of arcs covering each gap of the circle."""
    return ring_coverage(*arc_spans(model), model.circle_size)


def is_real(model: ArcModel) -> bool:
    """True when the arcs jointly cover every gap of the circle."""
    return bool(gap_coverage(model).all())


def _forward_pairs(starts: np.ndarray, lengths: np.ndarray, size: int):
    """Each ``(arc, other)`` where ``arc`` holds the first gap of ``other``,
    and their count per arc; each edge is one such pair, or two."""
    by_start = starts.argsort()
    lo, count = _points_in_spans(starts[by_start], starts, lengths, size)
    arc, at = expand_runs(lo + 1, count - 1, len(starts))
    return arc, by_start[at], count - 1


def intersection_edges(starts: np.ndarray, lengths: np.ndarray, size: int):
    """Every directed edge ``(src, tgt)`` once, as int32 arrays, and the
    degree of every arc, from the spans of ``arc_spans`` on a circle of
    ``size`` gaps.  Arcs meet iff one holds the other's first gap: an arc
    has an edge to each arc whose first gap it holds, and back from it
    unless that arc holds its first gap."""
    arc, other, forward = _forward_pairs(starts, lengths, size)
    back = (starts.repeat(forward) - starts[other]) % size >= lengths[other]
    back_from = other[back]
    edges = tuple(np.concatenate(pair, dtype=np.int32, casting="same_kind")
                  for pair in ((arc, back_from), (other, arc[back])))
    return edges, forward + np.bincount(back_from, minlength=len(starts))


def intersection_graph(model: ArcModel) -> Graph:
    """Graph with one vertex per arc, edges between intersecting arcs."""
    arc, other, _ = _forward_pairs(*arc_spans(model), model.circle_size)
    adj = np.zeros((model.n, model.n), dtype=bool)
    adj[arc, other] = adj[other, arc] = True
    return Graph(model.n, adj)
