"""Routing schemes and their JSON format, shared by both halves.

A scheme is a cyclic vertex order plus the ring-intervals of every
directed arc.  The builder emits one and the verifier and the 1-IRS
search read one, so this module imports neither half's code.
"""

from __future__ import annotations

import json
import re
from itertools import chain

import numpy as np

from .errors import StructuralSchemeError
from .ring_order import CyclicOrder, changes, is_id, unique_keys


class RoutingScheme:
    """A cyclic vertex order plus the intervals of every directed arc.

    Interval ``i`` labels arc ``(src[i], dst[i])`` with the ``length[i]``
    order positions clockwise from ``start[i]``.  The four arrays are
    read-only int64 copies, sorted by arc, each arc's intervals in their
    given order; an arc without intervals has no rows.

    Every row must name an arc between two distinct vertices of the order
    and an interval of it: ``0 <= start < n`` and ``1 <= length <= n``.
    StructuralSchemeError names the lowest arc that is no such arc, else
    the first arc with an interval outside the order.
    """

    __slots__ = ("order", "src", "dst", "start", "length", "__weakref__")

    def __init__(self, order: CyclicOrder, src, dst, start, length):
        self.order = order
        bad = StructuralSchemeError(
            "src, dst, start and length must be one-dimensional integer "
            "arrays of equal length")
        try:
            arrays = [np.asarray(a) for a in (src, dst, start, length)]
        except (TypeError, ValueError) as exc:  # ragged
            raise bad from exc
        # a cast would truncate floats and read booleans as 0 / 1; an empty
        # list is float64, so only non-empty arrays must hold integers
        if any(a.size and a.dtype.kind not in "iu" for a in arrays):
            raise bad
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise bad
        s, d, first, length = (a.astype(np.int64) for a in arrays)
        n = order.n
        invalid = (s < 0) | (s >= n) | (d < 0) | (d >= n) | (s == d)
        if invalid.any():
            s, d = s[invalid], d[invalid]
            v = s.min()
            raise StructuralSchemeError(
                f"arc ({v}, {d[s == v].min()}) is not a valid arc")
        arc = s * n + d
        if (arc[1:] < arc[:-1]).any():
            idx = np.argsort(arc, kind="stable")
            s, d, first, length = s[idx], d[idx], first[idx], length[idx]
        outside = (first < 0) | (first >= n) | (length < 1) | (length > n)
        if outside.any():
            i = np.argmax(outside)
            raise StructuralSchemeError(
                f"arc ({s[i]}, {d[i]}) has an interval outside the order")
        for a in (s, d, first, length):
            a.flags.writeable = False
        self.src, self.dst, self.start, self.length = s, d, first, length

    @property
    def n(self) -> int:
        return self.order.n

    def _arc_opens(self) -> np.ndarray:
        """Rows that open their arc: the rows are sorted by arc, so a row
        opens one where src or dst changes from the row before."""
        return changes(self.src, self.dst)

    def to_json(self) -> str:
        items = self.order.items
        opens = self._arc_opens()
        return "".join(_scheme_pieces(
            items, self.src[opens], self.dst[opens], opens, items[self.start],
            items[(self.start + self.length - 1) % len(items)]))

    @classmethod
    def from_json(cls, data: bytes | str) -> "RoutingScheme":
        """Read a scheme written in the format of ``to_json``, with any JSON
        whitespace, arcs in any order and arcs listed with no intervals.

        The bytes ``to_json`` writes, with arcs in any order and at most one
        final newline, are read in bulk by ``_read_written``.  Any other
        document goes through ``json.loads`` in ``_read_json``, which raises
        StructuralSchemeError naming what is wrong.
        """
        order, src, dst, counts, a, b = _read_written(data) or _read_json(data)
        start, end = order.pos[a], order.pos[b]
        return cls(order, np.repeat(src, counts), np.repeat(dst, counts),
                   start, (end - start) % order.n + 1)


# the texts a word writes before its vertex id, one block of n words
# each: the close of an arc's list and the quote opening the next key, the
# arrow inside a key, the close of a key and the open of its list, the
# join of two intervals of one arc, and the comma inside an interval
_PREFIXES = (']], "', "->", '": [[', "], [", ", ")
_NEXT_ARC, _ARROW, _OPEN_LIST, _NEXT_INTERVAL, _COMMA = range(5)
# tokens joined into one piece at a time, bounding the joined list
_JOIN_TOKENS = 1 << 15


def _scheme_pieces(items, key_src, key_dst, opens, a, b):
    """The scheme JSON of an order and its interval rows, written in bulk
    and yielded in pieces, so that the reader compares it without joining.

    Row ``i`` is interval ``[a[i], b[i]]``; ``opens`` marks the rows that
    begin an arc's list, and ``key_src`` / ``key_dst`` name those arcs.
    Each row is four tokens indexing one word table, every word a vertex
    id with the fixed text before it.  A row that opens an arc writes
    ``]], "src``, ``->dst``, ``": [[a`` and ``, b``; a row that continues
    one writes two empty words, ``], [a`` and ``, b``.  The table holds
    the five prefixed copies of the ids 0 .. n - 1, then the first row's
    ``"src``, then the empty word, so each piece is one join.
    """
    n = len(items)
    ids = list(map(str, range(n)))
    head = '"' + ids[key_src[0]] if len(key_src) else ""
    words = np.array([p + i for p in _PREFIXES for i in ids] + [head, ""],
                     dtype=object)
    first, empty = len(words) - 2, len(words) - 1
    tokens = np.empty((len(a), 4), dtype=np.int32)
    tokens[:, 0] = tokens[:, 1] = empty
    rows = np.flatnonzero(opens)
    tokens[rows, 0] = key_src + _NEXT_ARC * n
    tokens[rows, 1] = key_dst + _ARROW * n
    tokens[:1, 0] = first
    tokens[:, 2] = a
    tokens[:, 2] += np.where(opens, _OPEN_LIST * n, _NEXT_INTERVAL * n)
    tokens[:, 3] = b
    tokens[:, 3] += _COMMA * n
    flat = tokens.ravel()
    yield ('{"order": [' + ", ".join([ids[v] for v in items.tolist()])
           + '], "labels": {')
    del ids
    for i in range(0, len(flat), _JOIN_TOKENS):
        yield "".join(words[flat[i:i + _JOIN_TOKENS]].tolist())
    yield "]]}}" if len(a) else "}}"


# bytes.translate table turning every byte but a decimal digit into a space
_DIGITS_ONLY = bytes(c if 48 <= c < 58 else 32 for c in range(256))


def _numbers(text: bytes) -> np.ndarray:
    """The digit runs of ``text`` as int64, saturating past its range."""
    digits = text.translate(_DIGITS_ONLY)
    if not digits or digits.isspace():  # numpy reads blank text as [0]
        return np.empty(0, dtype=np.int64)
    return np.fromstring(digits, dtype=np.int64, sep=" ")


def _read_written(data: bytes | str):
    """(order, arc sources, arc targets, intervals per arc, interval first
    ends, interval last ends) of ``data`` if it is text that ``to_json``
    writes, with its arcs in any order and at most one final newline, else
    None to leave ``data`` to ``json.loads``.

    Between its quotes lie the strings: ``order``, ``labels`` and one key
    per arc.  One bulk read takes every number: the order's, then per arc
    two for the key and two per interval, an arc's intervals being the
    opening brackets between its key's closing quote and the next one (or
    the end) but one.  Every id must lie below n before anything is
    written back, and the text written back in ``to_json``'s format must
    be ``data`` byte for byte.  That proves the split, since the writer
    puts no bracket in a key, and it leaves a sign, a leading zero, a
    float, an escape, other whitespace, an extra key or a key out of place
    to ``json.loads``.  So do an arc with no intervals, a repeated arc and
    an order that is not a permutation.
    """
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError:
            return None
    elif not isinstance(data, bytes):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    quotes = np.flatnonzero(raw == ord('"'))
    if len(quotes) < 4 or len(quotes) % 2:
        return None
    order = _numbers(data[quotes[1]:quotes[2]])
    n = len(order)
    numbers = _numbers(data)[n:]
    counts = np.diff(np.searchsorted(np.flatnonzero(raw == ord("[")),
                                     np.append(quotes[5::2], len(raw)))) - 1
    del quotes
    if ((counts < 1).any() or len(numbers) != 2 * (len(counts) + counts.sum())
            or any(x.size and x.max() >= n for x in (order, numbers))):
        return None
    opens = np.zeros(counts.sum(), dtype=bool)
    opens[np.cumsum(counts) - counts] = True
    # arc k's key is numbers 2k + 2r and 2k + 2r + 1, r its first row; row
    # r's interval is numbers 2r + 2k + 2 and 2r + 2k + 3, k its arc
    key = 2 * np.flatnonzero(opens) + np.arange(0, 2 * len(counts), 2)
    src, dst = numbers[key], numbers[key + 1]
    row = 2 * np.cumsum(opens) + np.arange(0, 2 * len(opens), 2)
    a, b = numbers[row], numbers[row + 1]
    # the rewrite below is the peak, so what it does not need goes first
    del numbers, key, row
    at = 0
    for piece in _scheme_pieces(order, src, dst, opens, a, b):
        if not data.startswith(piece.encode("ascii"), at):
            return None
        at += len(piece)
    if data[at:] not in (b"", b"\n"):
        return None
    try:
        cyclic = CyclicOrder(order)
    except ValueError:
        return None
    arc = src * n + dst
    if (np.diff(arc) <= 0).any() and (np.diff(np.sort(arc)) == 0).any():
        return None
    return cyclic, src, dst, counts, a, b


def _read_json(data: bytes | str):
    """(order, arc sources, arc targets, intervals per arc, interval first
    ends, interval last ends) of a scheme document read through
    ``json.loads``; StructuralSchemeError names the first fault of a
    document that is no scheme."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StructuralSchemeError(f"scheme is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(data, object_pairs_hook=unique_keys(
            StructuralSchemeError, "scheme JSON repeats an object key"))
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise StructuralSchemeError(f"invalid scheme JSON: {exc}") from exc
    if not isinstance(obj, dict) or "order" not in obj or "labels" not in obj:
        raise StructuralSchemeError('scheme needs "order" and "labels"')
    raw_order, raw_labels = obj["order"], obj["labels"]
    if not (isinstance(raw_order, list) and all(map(is_id, raw_order))):
        raise StructuralSchemeError('"order" must be a list of integers')
    if not isinstance(raw_labels, dict):
        raise StructuralSchemeError('"labels" must be an object')
    try:
        order = CyclicOrder(raw_order)
    except ValueError as exc:
        raise StructuralSchemeError(str(exc)) from exc
    n = order.n
    keys, lists = list(raw_labels), list(raw_labels.values())
    for key, ivls in zip(keys, lists):
        if _ARC_KEY.fullmatch(key) is None or not isinstance(ivls, list):
            raise StructuralSchemeError(f"bad labels entry {key!r}")
    ends = list(chain.from_iterable(lists))
    pairs = set(map(type, ends)) <= {list} and set(map(len, ends)) <= {2}
    # type() is exact: JSON booleans decode to bool, a subclass of int
    if not (pairs and set(map(type, chain.from_iterable(ends))) <= {int}):
        key = next(k for k, ivls in zip(keys, lists) if not all(
            type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
            for e in ivls))
        raise StructuralSchemeError(
            f"bad labels entry {key!r}: intervals must be pairs of integers"
        )
    try:
        arcs = np.array(" ".join(keys).replace("->", " ").split(),
                        dtype=np.int64).reshape(-1, 2)
        ab = np.array(ends, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise StructuralSchemeError("vertex id outside the order") from exc
    if (arcs >= n).any():
        key = keys[int(np.flatnonzero((arcs >= n).any(axis=1))[0])]
        raise StructuralSchemeError(f"arc {key!r} outside the order")
    outside = ((ab < 0) | (ab >= n)).any(axis=1)
    if outside.any():
        a, b = ab[outside][0].tolist()
        raise StructuralSchemeError(f"interval [{a}, {b}] outside the order")
    counts = np.array(list(map(len, lists)), dtype=np.int64)
    return order, arcs[:, 0], arcs[:, 1], counts, ab[:, 0], ab[:, 1]


# canonical arc key: two decimal vertex ids without sign or leading zero
_ARC_KEY = re.compile(r"(?:0|[1-9][0-9]*)->(?:0|[1-9][0-9]*)")
