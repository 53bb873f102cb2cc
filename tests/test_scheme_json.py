"""The scheme JSON writer and reader against their one-row-at-a-time
references (the corpus is compared in ``test_builder.py``), the reader's
bulk path for the writer's own bytes and the memory both take."""

import json
import random
import re
import tracemalloc

import pytest

import arcroute.scheme
from arcroute import CyclicOrder, RoutingScheme, build_scheme, gen_random, gen_ring
from arcroute.cli import main
from arcroute.errors import StructuralSchemeError
from conftest import perturbed_ring, ref_from_json, ref_to_json, same_scheme


def read_counting(monkeypatch, data):
    """``from_json(data)`` and the number of ``json.loads`` calls it made."""
    calls = []
    real = arcroute.scheme.json.loads

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(arcroute.scheme.json, "loads", counting)
        scheme = RoutingScheme.from_json(data)
    return scheme, len(calls)


def spacings(text):
    """``text`` as the writer writes it, and with other JSON whitespace,
    as ``(data, reads in bulk)`` pairs: only the writer's bytes, with arcs
    in any order and at most one final newline, read in bulk."""
    obj = json.loads(text)
    keys = list(obj["labels"])
    random.Random(len(keys)).shuffle(keys)
    shuffled = {"order": obj["order"], "labels": {k: obj["labels"][k] for k in keys}}
    written = [text, text + "\n", text.encode(), (text + "\n").encode(),
               json.dumps(shuffled)]
    other = [text + "\n\n", (text + "\r\n").encode(),
             json.dumps(obj, indent=2), json.dumps(obj, separators=(",", ":")),
             json.dumps(obj, separators=(",\t", ":\r\n")),
             json.dumps(obj, indent="\t").replace("\n", "\r\n"),
             json.dumps(shuffled, indent=2)]
    return [(data, True) for data in written] + [(data, False) for data in other]


def two_interval_scheme():
    """Arcs with two intervals in either order, keys out of order."""
    return ('{"order": [2, 0, 3, 1], "labels": {"3->0": [[0, 0], [1, 2]], '
            '"0->1": [[1, 3]], "1->0": [[3, 0]], "0->3": [[2, 2], [0, 3]], '
            '"2->1": [[1, 1]]}}')


# ids of one to four digits: the writer's word table has a block of
# prefixed ids, so its digit boundaries are covered
SCHEMES = [
    lambda: build_scheme(gen_random(40, 3)).to_json(),
    lambda: build_scheme(gen_ring(9)).to_json(),
    lambda: build_scheme(gen_ring(10)).to_json(),
    lambda: build_scheme(gen_random(100, 2)).to_json(),
    lambda: build_scheme(perturbed_ring(40, 1)).to_json(),
    lambda: build_scheme(perturbed_ring(1200, 1)).to_json(),
    two_interval_scheme,
    lambda: '{"order": [0], "labels": {}}',
]
SCHEME_IDS = ["random", "ring", "ring-10", "random-100", "perturbed",
              "perturbed-1200", "two-interval", "one-vertex"]


@pytest.mark.parametrize("make", SCHEMES, ids=SCHEME_IDS)
def test_only_the_writers_bytes_read_in_bulk(monkeypatch, make):
    for data, bulk in spacings(make()):
        _, calls = read_counting(monkeypatch, data)
        assert calls == (0 if bulk else 1), data


@pytest.mark.parametrize("make", SCHEMES, ids=SCHEME_IDS)
def test_every_spacing_reads_as_the_reference(make):
    text = make()
    expected = ref_from_json(text)
    for data, _ in spacings(text):
        scheme = RoutingScheme.from_json(data)
        assert same_scheme(scheme, ref_from_json(data)), data
        assert same_scheme(scheme, expected), data
        assert scheme.to_json() == ref_to_json(expected)


def test_ids_outside_the_order_never_reach_the_writer():
    # the constructor once took any int64 id for an arc's ends, and the
    # writer remapped them
    for order, src, dst, message in [
        ([0, 1], [-1, 5, 10 ** 15], [-1, -7, 3], "arc (-1, -1) is not a valid arc"),
        ([1, 0, 2], [0, 0, 4, 4, -3], [1, 1, 0, 0, 2], "arc (-3, 2) is not a valid arc"),
    ]:
        ones = [1] * len(src)
        with pytest.raises(StructuralSchemeError, match=re.escape(message)):
            RoutingScheme(CyclicOrder(order), src, dst, ones, ones)
    empty = RoutingScheme(CyclicOrder([0]), [], [], [], [])
    assert empty.to_json() == ref_to_json(empty)


def test_built_scheme_file_reads_on_the_fast_path(monkeypatch, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(gen_random(12, 4).to_json())
    out = tmp_path / "scheme.json"
    assert main(["build", "--model", str(model), "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.endswith(b"\n")
    scheme, calls = read_counting(monkeypatch, data)
    assert calls == 0
    assert same_scheme(scheme, ref_from_json(data))


@pytest.mark.parametrize("data", [
    # labels first, an extra key, an escaped key, an arc with no intervals
    '{"labels": {"0->1": [[1, 2]], "1->2": [[2, 0]], "2->0": [[0, 1]]}, '
    '"order": [0, 1, 2]}',
    '{"order": [0, 1, 2], "labels": {"0->1": [[1, 2]]}, "note": "x"}',
    '{"order": [0, 1, 2], "labels": {"0->1": [[1, 1]], "\\u0030->2": [[2, 2]]}}',
    '{"\\u006frder": [0, 1, 2], "labels": {"0->1": [[1, 1]]}}',
    '{"order": [0, 1, 2], "labels": {"0->1": [], "1->0": [[0, 0]], "2->1": []}}',
    '{"order": [0, 1, 2], "labels": {"0->1": []}}',
    # -0 is the JSON integer 0
    '{"order": [1, -0, 2], "labels": {"0->1": [[-0, 1]]}}',
    # text that encodes to no bytes, in a key the scheme ignores
    '{"order": [0, 1], "labels": {"0->1": [[1, 1]]}, "\ud800": 1}',
    bytearray(b'{"order": [0, 1], "labels": {"0->1": [[1, 1]]}}'),
], ids=["labels-first", "extra-key", "escaped-key", "escaped-order",
        "empty-lists", "only-empty", "minus-zero", "surrogate", "bytearray"])
def test_other_documents_go_through_json_loads(monkeypatch, data):
    scheme, calls = read_counting(monkeypatch, data)
    assert calls == 1
    assert same_scheme(scheme, ref_from_json(data))
    assert scheme.to_json() == ref_to_json(scheme)


# the writer's word table grows with n, its tokens with the rows: a dense
# and a sparse model
@pytest.mark.parametrize("make", [lambda: gen_random(200, 5),
                                  lambda: perturbed_ring(2000, 1)],
                         ids=["random-200", "perturbed-2000"])
def test_reading_and_writing_take_less_memory_than_the_reference(make):
    scheme = build_scheme(make())
    text = scheme.to_json()
    peaks = {}
    for name, call in [("reference", lambda: ref_from_json(text)),
                       ("to_json", scheme.to_json),
                       ("from_json", lambda: RoutingScheme.from_json(text))]:
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["to_json"] <= peaks["reference"], peaks
    assert peaks["from_json"] <= peaks["reference"], peaks


def test_mutated_documents_read_as_the_reference_reads_them():
    # a few characters inserted, deleted or replaced: the same scheme, or
    # the same error class and message, as the json.loads reference
    texts = [build_scheme(gen_random(6, 2)).to_json(), two_interval_scheme()]
    alphabet = [*'0123456789 \t\n\r",:[]{}->+.eE\\u', "\ud800", "\xe9", "12", '"0->1"']
    rng = random.Random(7)

    def outcome(read, data):
        try:
            return read(data)
        except StructuralSchemeError as exc:
            return type(exc), str(exc)

    accepted = 0
    for _ in range(3000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            at, op = rng.randrange(len(text) + 1), rng.random()
            if op < 0.4:  # insert
                text = text[:at] + rng.choice(alphabet) + text[at:]
            elif op < 0.7:  # delete
                text = text[:at] + text[at + rng.randint(1, 3):]
            else:  # replace
                text = text[:at] + rng.choice(alphabet) + text[at + 1:]
        data = text if rng.random() < 0.5 else text.encode("utf-8", "surrogatepass")
        got, expected = outcome(RoutingScheme.from_json, data), outcome(ref_from_json, data)
        if isinstance(got, RoutingScheme) and isinstance(expected, RoutingScheme):
            assert same_scheme(got, expected), data
            accepted += 1
        else:
            assert got == expected, data
    assert accepted > 20
