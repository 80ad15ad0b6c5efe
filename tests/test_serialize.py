import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from qlsmub import serialize
from qlsmub.bases import BipartiteBasis
from qlsmub.fixtures import fixture, hadamard_9_corrected
from qlsmub.serialize import (
    FORMAT,
    SCHEMAS,
    SerializeError,
    dumps,
    from_doc,
    load_path,
    loads,
    read,
    save_path,
    to_doc,
)
from qlsmub.squares import LatinSquare, VectorGrid

from helpers import reference_dumps, reference_from_doc

CYCLIC3 = LatinSquare([[(r + c) % 3 for c in range(3)] for r in range(3)])

_RNG = np.random.default_rng(3)
SAMPLES = {
    "grid": fixture("paper-P").array,
    "latin": CYCLIC3.cells,
    "matrix": hadamard_9_corrected().mat,
    "matrix-list": _RNG.standard_normal((4, 2, 2)) + 1j * _RNG.standard_normal((4, 2, 2)),
    "basis": np.eye(4, dtype=complex) * 1j,
    "vector-list": np.array(fixture("corrected-triple")),
}


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_round_trip_is_canonical(kind):
    text = dumps(to_doc(kind, SAMPLES[kind]))
    back = from_doc(loads(text), kind)
    assert_array_equal(back, SAMPLES[kind])
    assert dumps(to_doc(kind, back)) == text


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "square.json")
    save_path(path, to_doc("latin", CYCLIC3.cells))
    assert read(path, "latin") == CYCLIC3
    # canonical text on disk: trailing newline, sorted keys
    raw = (tmp_path / "square.json").read_text()
    assert raw.endswith("\n")
    assert raw == dumps(to_doc("latin", CYCLIC3.cells))


@pytest.mark.parametrize(
    "kind, expected",
    [("grid", VectorGrid), ("latin", LatinSquare), ("basis", BipartiteBasis),
     ("matrix", np.ndarray), ("matrix-list", np.ndarray), ("vector-list", np.ndarray)],
)
def test_read_returns_the_library_object(tmp_path, kind, expected):
    path = str(tmp_path / "doc.json")
    save_path(path, to_doc(kind, SAMPLES[kind]))
    assert isinstance(read(path, kind), expected)


def test_read_turns_a_constructor_error_into_a_serialize_error(tmp_path):
    path = str(tmp_path / "bad.json")
    save_path(path, {"format": FORMAT, "kind": "latin", "n": 2, "cells": [[0, 0], [1, 1]]})
    with pytest.raises(SerializeError, match="permutation"):
        read(path, "latin")


def test_rejects_bad_json_and_headers():
    with pytest.raises(SerializeError, match="not valid JSON"):
        loads("{nope")
    with pytest.raises(SerializeError, match="JSON object"):
        loads("[1, 2]")
    with pytest.raises(SerializeError, match="JSON object"):
        from_doc([1, 2], "latin")
    doc = to_doc("latin", CYCLIC3.cells)
    doc["format"] = "qlsmub/999"
    with pytest.raises(SerializeError, match="format tag"):
        from_doc(doc, "latin")
    with pytest.raises(SerializeError, match="kind"):
        from_doc(to_doc("latin", CYCLIC3.cells), "grid")


def test_rejects_malformed_payloads():
    doc = to_doc("latin", CYCLIC3.cells)
    doc["n"] = 4
    with pytest.raises(SerializeError, match="does not match"):
        from_doc(doc, "latin")

    g = to_doc("grid", fixture("paper-P").array)
    g["entries"] = [[1.0]]
    with pytest.raises(SerializeError, match="re, im"):
        from_doc(g, "grid")

    m = to_doc("matrix", np.eye(2))
    m["entries"][0][0] = ["x", "y"]
    with pytest.raises(SerializeError, match="not numbers"):
        from_doc(m, "matrix")

    m2 = to_doc("matrix", np.eye(2))
    m2["entries"][0][0] = [float("nan"), 0.0]
    with pytest.raises(SerializeError, match="non-finite"):
        from_doc(m2, "matrix")


@pytest.mark.parametrize(
    "cells",
    [[[0, 1.7], [1, 0.2]], [[0, 1.0], [1, 0]], [["0", "1"], ["1", "0"]],
     [[0, True], [True, 0]], [[0, 1], [1]], [[0, 2**63], [1, 0]], None],
)
def test_latin_cells_must_be_json_integers(cells):
    doc = {"format": FORMAT, "kind": "latin", "n": 2, "cells": cells}
    with pytest.raises(SerializeError, match="latin cells are not integers"):
        from_doc(doc, "latin")


# [re, im] leaves that are no JSON number, alone or among floats
PAIR_LEAVES = {
    "strings": lambda x: str(x),
    "bools": lambda x: x > 0,
    "bools among floats": lambda x: x > 0 if x == 1.0 else x,
    "nulls": lambda x: None,
    "huge ints": lambda x: 10**400,
}


@pytest.mark.parametrize("case", sorted(PAIR_LEAVES))
def test_pair_leaves_must_be_json_numbers(case):
    doc = to_doc("matrix", np.eye(2))
    leaf = PAIR_LEAVES[case]
    doc["entries"] = [[[leaf(x) for x in pair] for pair in row] for row in doc["entries"]]
    with pytest.raises(SerializeError, match="matrix entries: entries are not numbers"):
        from_doc(doc, "matrix")


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_header_values_must_be_at_least_one(kind):
    schema = SCHEMAS[kind]
    doc = to_doc(kind, np.ones((1,) * len(schema.axes), dtype=int))
    for key in schema.axes:
        for value in (0, -1):
            with pytest.raises(SerializeError, match=f"{kind} header {key} is {value}, expected"):
                from_doc({**doc, key: value}, kind)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_header_values_must_be_json_integers(kind, value):
    ndim = len(SCHEMAS[kind].axes)
    doc = to_doc(kind, np.zeros((1,) * ndim, dtype=int))  # every header value is 1
    assert from_doc(doc, kind).shape == (1,) * ndim
    for key in SCHEMAS[kind].axes:
        with pytest.raises(SerializeError, match="does not match"):
            from_doc({**doc, key: value}, kind)


def test_missing_file(tmp_path):
    with pytest.raises(SerializeError, match="cannot read"):
        load_path(str(tmp_path / "absent.json"))


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def kind_and_array(draw):
    """A kind and a random array of a shape its schema accepts.

    Sizes start at 0, which ``to_doc`` must refuse: nested JSON lists cannot
    carry the shape of an empty array.
    """
    kind = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[kind]
    sizes = {key: draw(st.integers(0, 3)) for key in schema.axes}
    shape = tuple(sizes[key] ** 2 if schema.square else sizes[key] for key in schema.axes)
    if not schema.pairs:
        return kind, draw(arrays(np.int64, shape))
    parts = draw(arrays(np.float64, shape + (2,), elements=FLOATS))
    return kind, parts.view(np.complex128)[..., 0]


@settings(max_examples=200, deadline=None, database=None)
@given(kind_and_array())
def test_canonical_json_re_encodes_byte_for_byte(case):
    kind, arr = case
    if arr.size == 0:
        with pytest.raises(SerializeError, match="empty axis"):
            to_doc(kind, arr)
        return
    text = dumps(to_doc(kind, arr))
    back = from_doc(loads(text), kind)
    assert back.shape == arr.shape
    assert dumps(to_doc(kind, back)) == text


# floats whose repr is an edge case: signed zero, exponent forms, the subnormal
# and largest finite doubles, and integer-valued floats
EDGE_FLOATS = [-0.0, 0.0, 1e16, 1e-05, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               2.0, -3.0, 1e22, 123456789012345.0]
NUMBERS = st.one_of(FLOATS, st.sampled_from(EDGE_FLOATS), st.integers(-2**60, 2**60).map(float))


@st.composite
def documents(draw):
    """A ``to_doc`` document of a random kind and shape, at times with its
    [re, im] leaves replaced by a mix of Python ints and floats."""
    kind = draw(st.sampled_from(sorted(SCHEMAS)))
    schema = SCHEMAS[kind]
    sizes = {key: draw(st.integers(1, 3)) for key in schema.axes}
    shape = tuple(sizes[key] ** 2 if schema.square else sizes[key] for key in schema.axes)
    if not schema.pairs:
        return to_doc(kind, draw(arrays(np.int64, shape)))
    parts = draw(arrays(np.float64, shape + (2,), elements=NUMBERS))
    doc = to_doc(kind, parts.view(np.complex128)[..., 0])
    if draw(st.booleans()):
        leaves = st.one_of(st.integers(), NUMBERS)
        doc[schema.payload] = draw(arrays(object, shape + (2,), elements=leaves)).tolist()
    return doc


TEXT = st.one_of(st.text(max_size=8),
                 st.sampled_from(["two\nlines", 'say "hi"', "back\\slash", "é", "\x7f", 'x": 1e5']))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | NUMBERS | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=16,
)
REPORTS = st.dictionaries(TEXT, JSON_VALUES | documents(), max_size=6)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(documents(), REPORTS))
@example({})
@example({"ragged": [[1, 2], [3]], "deeper": [[1, 2], [3, [4]]], "shallower": [[[1]], [2]]})
@example({"empty": [], "empty rows": [[], []], "bools": [[0, True], [1, False]]})
@example({"mixed": [1, 2.5, None, "x"], "nested": {"b": [1.0], "a": {"z": None}}})
@example({"tuples": [(1.0, 2.0), (3.0, 4.0)], "numpy floats": [np.float64(0.1)]})
@example({1: [[1.5, 2]], 2: None})
@example({"e": 1, "pairs_checked": 144, "tol": 1e-09})
@example({"\x7f": "\x7f"})
@example({'a": 1e5': 1e16, "k": 'x": 1e5'})
@example({"s": "null", "n": None})
@example({"big": 2**64 - 1, "small": -2**63, "wide": 2**64})
@example({"d": {"a": [1e-07, {"b": 1e-05}]}})
def test_dumps_is_the_stdlib_text(doc):
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("theirs, other", [(b"100.0", b"100"), (b"0.1", b".1")])
def test_an_orjson_that_spells_floats_otherwise_is_refused(tmp_path, monkeypatch, theirs, other):
    orjson_dumps = serialize.orjson.dumps
    monkeypatch.setattr(serialize.orjson, "dumps",
                        lambda obj, **kw: orjson_dumps(obj, **kw).replace(theirs, other))
    serialize._check_spelling.cache_clear()
    path = tmp_path / "doc.json"
    with pytest.raises(RuntimeError, match="spells floats"):
        save_path(str(path), {"payload": [float(theirs)]})
    assert not path.exists()


def _exact(value):
    """A parsed JSON value with each float as its hex spelling, so that ``==``
    compares floats bit for bit, and each int outside 64 bits as the float
    orjson reads it."""
    if type(value) is list:
        return [_exact(item) for item in value]
    if type(value) is dict:
        return {key: _exact(item) for key, item in value.items()}
    if type(value) is int and not -2**63 <= value < 2**64:
        value = float(value)
    return value.hex() if type(value) is float else value


def _payload_or_error(doc, kind, reader=from_doc):
    try:
        arr = reader(doc, kind)
    except SerializeError as exc:
        return str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(documents())
def test_the_reader_parses_what_dumps_writes_as_the_stdlib_does(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    save_path(str(path), doc)
    kind, theirs = doc["kind"], json.loads(path.read_text())
    try:
        ours = load_path(str(path))
    except SerializeError as exc:  # an int beyond the doubles, which from_doc refuses too
        assert str(exc).startswith("not valid JSON: ")
        with pytest.raises(SerializeError, match="entries are not numbers"):
            from_doc(theirs, kind)
        return
    assert _exact(ours) == _exact(theirs)
    assert _payload_or_error(ours, kind) == _payload_or_error(theirs, kind)


# leaves no payload may hold, and leaves at the edges of what one may
BAD_LEAVES = ["1.0", True, False, None, 10**400, 2**63, -2**63 - 1, 2**64, float("nan"),
              float("-inf"), 1, -0.0, 0.5]
PAYLOAD_EDITS = {
    "a leaf": lambda value, leaf: leaf,
    "a short list": lambda value, leaf: value[:-1] if type(value) is list else value,
    "a long list": lambda value, leaf: value + value[:1] if type(value) is list else [value, value],
    "one level deeper": lambda value, leaf: [value],
    "one level shallower": lambda value, leaf: value[0] if type(value) is list and value else leaf,
    "a tuple": lambda value, leaf: tuple(value) if type(value) is list else (value,),
    "a dict": lambda value, leaf: {"re": value},
    "an empty list": lambda value, leaf: [],
}
HEADERS = st.sampled_from(["3", "1", 0, 1, 2, 3, 4, 9, True, 2.0, None])


@st.composite
def mutated_documents(draw):
    """A ``documents()`` document with up to three edits: a value somewhere
    in its payload replaced by a bad leaf, a list made ragged, deeper,
    shallower, a tuple, a dict or empty; or a header value changed."""
    doc = draw(documents())
    schema = SCHEMAS[doc["kind"]]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            doc[draw(st.sampled_from(schema.axes))] = draw(HEADERS)
            continue
        owner, key = doc, schema.payload
        for _ in range(draw(st.integers(0, len(schema.axes) + 1))):
            if type(owner[key]) is not list or not owner[key]:
                break
            owner, key = owner[key], draw(st.integers(0, len(owner[key]) - 1))
        edit = PAYLOAD_EDITS[draw(st.sampled_from(sorted(PAYLOAD_EDITS)))]
        owner[key] = edit(owner[key], draw(st.sampled_from(BAD_LEAVES)))
    return doc


def _edited(kind, array, edit):
    doc = to_doc(kind, array)
    edit(doc)
    return doc


def _set(doc, path, value):
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value


@settings(max_examples=200, deadline=None, database=None)
@given(mutated_documents())
@example(_edited("matrix", np.eye(2), lambda d: d["entries"][1].pop()))  # a ragged row
@example(_edited("latin", CYCLIC3.cells, lambda d: d["cells"][2].append(0)))
@example(_edited("grid", np.ones((2, 2, 2)), lambda d: _set(d, ["entries", 0, 0, 1], [[1.0, 0.0]])))
@example(_edited("basis", np.eye(4), lambda d: _set(d, ["states", 1, 2], 1.0)))  # too shallow
@example(_edited("vector-list", np.eye(2), lambda d: _set(d, ["vectors"], [d["vectors"]])))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 0, 0, 0], "1.0")))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 0, 1, 1], True)))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 1, 0, 1], None)))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 1, 1, 0], float("nan"))))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 1, 1, 0], 10**400)))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 1, 1, 0], 2**63)))
@example(_edited("latin", CYCLIC3.cells, lambda d: _set(d, ["cells", 0, 0], 2**63)))
@example(_edited("latin", CYCLIC3.cells, lambda d: _set(d, ["cells", 0, 0], -2**63)))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 0, 1], (0.0, 1.0))))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries"], tuple(d["entries"]))))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 0, 1], {"re": 0.0, "im": 1.0})))
@example(_edited("matrix-list", np.ones((1, 1, 1)), lambda d: _set(d, ["members", 0, 0], [])))
@example(_edited("latin", CYCLIC3.cells, lambda d: _set(d, ["cells"], [])))
@example(_edited("grid", np.ones((1, 1, 1)), lambda d: _set(d, ["n"], "1")))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["rows"], "2")))
def test_from_doc_reads_as_the_nested_reader_does(doc):
    """The one-walk reader returns what a nested ``np.asarray`` and a scan
    of the leaf types return: the same dtype, shape and bytes, or the same
    error text."""
    kind = doc["kind"]
    assert _payload_or_error(doc, kind) == _payload_or_error(doc, kind, reference_from_doc)


def _read_outcome(text: bytes, path) -> object:
    """What ``load_path`` reads from a file holding ``text``: the value, its
    floats compared bit for bit, or the error."""
    path.write_bytes(text)
    try:
        return _exact(load_path(str(path)))
    except SerializeError as exc:
        return str(exc)


def _whole_outcome(text: bytes) -> object:
    try:
        return _exact(loads(text))
    except SerializeError as exc:
        return str(exc)


_OPEN_TEXT = b": [\n    [\n"
MATRIX_TEXT = dumps(to_doc("matrix", np.arange(6).reshape(3, 2) + 0.5j)).encode()
# texts in the canonical layout whose payload a run-by-run parse must not
# read differently from a whole parse
LOOKALIKES = {
    "a later duplicate key": MATRIX_TEXT.replace(b"\n}", b',\n  "entries": []\n}'),
    "an escaped duplicate key": MATRIX_TEXT.replace(b"\n}", b',\n  "\\u0065ntries": []\n}'),
    "the key as a value too": MATRIX_TEXT.replace(b'"matrix"', b'"entries"'),
    "the list nested a level deeper": b'{"outer": ' + MATRIX_TEXT + b"}",
    "the list in a list": b"[" + MATRIX_TEXT + b"]",
    "the key after another on its line": MATRIX_TEXT.replace(b'2,\n  "entries"', b'2, "entries"'),
    "an exponent after the list": MATRIX_TEXT.replace(b"\n  ],", b"\n  ]e5,"),
    "a fraction after the list": MATRIX_TEXT.replace(b"\n  ],", b"\n  ].5,"),
    "a NaN in an element": MATRIX_TEXT.replace(b"0.5", b"NaN", 1),
    "an element cut short": MATRIX_TEXT.replace(b"\n    ],\n    [", b"\n    ,\n    [", 1),
    "an unclosed list": MATRIX_TEXT.replace(b"\n    ]\n  ]", b"\n    ]\n  "),
}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_the_canonical_layout_is_read_in_runs(monkeypatch, kind):
    text = dumps(to_doc(kind, SAMPLES[kind])).encode()
    monkeypatch.setattr(serialize, "_RUN", 0)
    assert serialize._loads_in_runs(text) == loads(text)


@pytest.mark.parametrize("run", [0, 1 << 18])
@pytest.mark.parametrize("name", sorted(LOOKALIKES))
def test_a_lookalike_of_the_layout_reads_as_a_whole_parse(tmp_path, monkeypatch, name, run):
    text = LOOKALIKES[name]
    assert _OPEN_TEXT in text
    monkeypatch.setattr(serialize, "_RUN", run)
    assert _read_outcome(text, tmp_path / "doc.json") == _whole_outcome(text)

EDITS = st.sampled_from([b"", b" ", b"\n", b",", b"[", b"]", b"{", b"}", b'"', b"\\", b"0", b".5", b"e5",
                         b"NaN", b"\n    ],\n    [", b'"entries": [],', b"\xff"])


@settings(max_examples=200, deadline=None, database=None)
@given(documents(), st.lists(st.tuples(st.floats(0, 1), st.integers(0, 3), EDITS), max_size=3))
def test_an_edited_document_reads_as_a_whole_parse(tmp_path_factory, doc, edits):
    """Texts near the canonical layout, parsed one element per run, read as
    the whole text parses: the same value or the same error."""
    text = dumps(doc).encode()
    for where, cut, edit in edits:
        at = round(where * len(text))
        text = text[:at] + edit + text[at + cut:]
    with mock.patch.object(serialize, "_RUN", 0):
        ours = _read_outcome(text, tmp_path_factory.mktemp("doc") / "doc.json")
    assert ours == _whole_outcome(text)


@settings(max_examples=100, deadline=None, database=None)
@given(documents(), st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.data())
def test_a_non_finite_leaf_raises_and_leaves_no_file(tmp_path_factory, doc, bad, data):
    key = SCHEMAS[doc["kind"]].payload
    leaves = np.array(doc[key], dtype=object)
    leaves[tuple(data.draw(st.integers(0, size - 1)) for size in leaves.shape)] = bad
    doc[key] = leaves.tolist()
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps(doc)
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_path(str(path), doc)
    assert not path.exists()
