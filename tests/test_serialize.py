import json
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
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

from helpers import (
    CYCLIC3, EDGE_FLOATS, FLOATS, NUMBERS, documents, listed, mutated_documents, raises_exactly,
    reference_dumps, reference_from_doc,
)

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
    assert from_doc(to_doc(kind, SAMPLES[kind]), kind).tobytes() == back.tobytes()


def test_the_grid_and_matrix_list_helpers_are_to_doc_and_from_doc():
    rng = np.random.default_rng(4)
    array = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    members = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
    assert dumps(serialize.grid_doc(VectorGrid(array))) == dumps(to_doc("grid", array))
    doc = to_doc("grid", array)
    back = serialize.grid_from_doc(doc)
    assert type(back) is VectorGrid and back.array.tobytes() == from_doc(doc, "grid").tobytes()
    assert dumps(serialize.matrix_list_doc(members)) == dumps(to_doc("matrix-list", members))


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_a_strided_input_gives_a_c_ordered_payload(kind):
    strided = SAMPLES[kind].swapaxes(-1, -2)
    doc = to_doc(kind, strided)
    assert doc[SCHEMAS[kind].payload].flags.c_contiguous
    assert dumps(doc) == dumps(to_doc(kind, np.ascontiguousarray(strided)))


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

    m = listed(to_doc("matrix", np.eye(2)))
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
    doc["entries"] = [[[leaf(x) for x in pair] for pair in row] for row in doc["entries"].tolist()]
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


TEXT = st.one_of(st.text(max_size=8),
                 st.sampled_from(["two\nlines", 'say "hi"', "back\\slash", "é", "\x7f", 'x": 1e5']))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | NUMBERS | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=16,
)
REPORTS = st.dictionaries(TEXT, JSON_VALUES | documents(), max_size=6)

# floats at the edges of the payload values that the writer marks, 0 < |v| <
# 1e-4, one ulp to each side too, and of orjson's other spellings; 1e-300 is
# the value of the sentinel itself
MARK_EDGES = [float(x) for v in (1e-05, -1e-05, 1e-04, -1e-04)
              for x in (np.nextafter(v, 0.0), v, np.nextafter(v, 2 * v))]
MARK_EDGES += [9.999999999999999e-05, 5e-324, 1e-300, 1e16, 1e22, -0.0]
# amplitudes log-uniform over [1e-7, 1e-2], of either sign
SMALL = st.builds(lambda sign, power: sign * 10.0 ** power, st.sampled_from([1.0, -1.0]), st.floats(-7, -2))


def _pairs(values, *shape) -> np.ndarray:
    """The complex array whose [re, im] pairs are ``values``, in C order."""
    return np.array(values, dtype=np.float64).reshape(*shape, 2).view(np.complex128)[..., 0]


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(documents(), REPORTS, documents(st.sampled_from(MARK_EDGES) | SMALL)))
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
@example(to_doc("matrix", _pairs(MARK_EDGES, 3, 3)))
@example(to_doc("matrix-list", _pairs(MARK_EDGES, 3, 1, 3)))
@example({"format": FORMAT, "z": np.array([[3e-05, 1e-04], [0.5, -2e-06]]),
          "a": np.array([[-2e-05, 0.5], [7e-05, 1e-300]]), "n": 2})  # marked values in sorted-key order
@example({"vector": np.array([1e-05, 0.5, -3e-05]), "scalar": np.array(3e-05), "k": "x"})  # 1-D and 0-d
@example({"wide": 2**64, "entries": np.array([[1e-05, 3e-05], [0.5, 1e-300]])})  # stdlib, never the sentinel
def test_dumps_is_the_stdlib_text(doc):
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("theirs, other", [(b"100.0", b"100"), (b"0.1", b".1"), (b"1e-300", b"1.0e-300")])
def test_an_orjson_that_spells_floats_otherwise_is_refused(tmp_path, monkeypatch, theirs, other):
    orjson_dumps = serialize.orjson.dumps
    monkeypatch.setattr(serialize.orjson, "dumps",
                        lambda obj, **kw: orjson_dumps(obj, **kw).replace(theirs, other))
    serialize._check_spelling.cache_clear()
    path = tmp_path / "doc.json"
    with pytest.raises(RuntimeError, match="spells floats"):
        save_path(str(path), {"payload": [float(theirs)]})
    assert not path.exists()


def test_an_orjson_that_spells_arrays_otherwise_is_refused(tmp_path, monkeypatch):
    """An orjson that writes an array's numbers as strings, wherever the
    array is, and lists as it should, is refused before the first write,
    arrays or not."""
    orjson_dumps = serialize.orjson.dumps

    def spelled(obj, option=0):
        if option & orjson.OPT_SERIALIZE_NUMPY:
            return orjson_dumps(obj, option=option & ~orjson.OPT_SERIALIZE_NUMPY,
                                default=lambda arr: arr.astype(str).tolist())
        return orjson_dumps(obj, option=option)

    monkeypatch.setattr(serialize.orjson, "dumps", spelled)
    serialize._check_spelling.cache_clear()
    for doc in (to_doc("matrix", np.eye(2) * 0.1), {"payload": [0.1]}):
        path = tmp_path / "doc.json"
        with pytest.raises(RuntimeError, match="spells floats"):
            save_path(str(path), doc)
        assert not path.exists()


# float64 bit patterns: random ones, NaNs and infinities among them, and EDGE_FLOATS
_BITS = st.integers(0, 2**64 - 1) | st.sampled_from(np.array(EDGE_FLOATS).view(np.uint64).tolist())
_SHAPES = array_shapes(max_dims=3, max_side=4)


@settings(max_examples=200, deadline=None, database=None)
@given(arrays(np.uint64, _SHAPES, elements=_BITS).map(lambda a: a.view(np.float64))
       | arrays(np.int64, _SHAPES))
@example(np.array([[-2**63, 2**63 - 1], [0, -1]], dtype=np.int64))
@example(np.array([[0.1, -0.0], [1e16, 5e-324]]))
def test_orjson_spells_an_array_as_its_list(arr):
    """orjson's text of a float64 or int64 array, which ``dumps`` has it
    write, is its text of the array's ``tolist()``; NaN and infinities,
    which become null, included."""
    option = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY
    assert orjson.dumps(arr, option=option) == orjson.dumps(arr.tolist(), option=option)


def test_an_array_orjson_cannot_write_as_its_list_is_written_by_the_stdlib():
    """A float32, a strided or a byte-swapped array is written as the stdlib
    writes its ``tolist()``: orjson refuses a strided array and would spell
    the others otherwise."""
    base = np.arange(12.0).reshape(3, 4) / 3 + 1e-5
    for arr in (base.astype(np.float32), base[:, ::2], base.astype(">f8"), base.astype(">i8")):
        doc = {**to_doc("matrix", np.eye(3, 2)), "entries": arr}
        assert dumps(doc) == reference_dumps({**doc, "entries": arr.tolist()})


def test_a_value_neither_writer_takes_raises_the_stdlib_error():
    doc, message = {"a": {1, 2}}, "Object of type set is not JSON serializable"
    with raises_exactly(TypeError, message):
        json.dumps(doc)
    with raises_exactly(TypeError, message):
        dumps(doc)


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


def _outcome(read, kind):
    """What ``read()`` gives: its document's ``kind`` payload through
    ``from_doc`` (dtype, shape and bytes, or the error) and every other value
    of it, floats bit for bit; or the error of the read itself."""
    try:
        doc = read()
    except SerializeError as exc:
        return str(exc)
    key = SCHEMAS[kind].payload
    rest = {k: v for k, v in doc.items() if k != key} if type(doc) is dict else doc
    return _payload_or_error(doc, kind), _exact(rest)


@settings(max_examples=150, deadline=None, database=None)
@given(documents())
@example({"kind": "basis", "n": 1, "states": [[[0, -9223372036854775809]]]})
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
    assert _outcome(lambda: ours, kind) == _outcome(lambda: theirs, kind)
    # read in runs into an int64 array exactly when every leaf is an int; only
    # an int outside int64 leaves it to the lists: loads reads one in [2**63,
    # 2**64) as an int, and one outside the 64-bit range, at either end, as a
    # float
    leaves = np.array(theirs[SCHEMAS[kind].payload], dtype=object).ravel().tolist()
    payload = ours[SCHEMAS[kind].payload]
    if type(payload) is np.ndarray:
        assert (payload.dtype == np.int64) == all(type(x) is int for x in leaves)
    else:
        assert any(type(x) is int and not -2**63 <= x < 2**63 for x in leaves)


def _edited(kind, array, edit):
    doc = listed(to_doc(kind, array))
    edit(doc)
    return doc


def _set(doc, path, value):
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value


NESTED_70 = json.loads("[" * 70 + "1.0" + "]" * 70)  # deeper than numpy's 64 dimensions


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
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries"], NESTED_70)))
@example(_edited("matrix", np.eye(2), lambda d: _set(d, ["entries", 1], tuple(d["entries"][1]))))
@example(_edited("matrix", np.ones((1, 2)), lambda d: _set(d, ["entries", 0], [[1.0, 0.0, 5.0], "123"])))
def test_from_doc_reads_as_the_nested_reader_does(doc):
    """The one-walk reader returns what a nested ``np.asarray`` and a scan
    of the leaf types return: the same dtype, shape and bytes, or the same
    error text."""
    kind = doc["kind"]
    assert _payload_or_error(doc, kind) == _payload_or_error(doc, kind, reference_from_doc)


def _read_outcome(text: bytes, path, kind) -> object:
    """``_outcome`` of ``load_path`` on a file holding ``text``."""
    path.write_bytes(text)
    return _outcome(lambda: load_path(str(path)), kind)


def _whole_outcome(text: bytes, kind) -> object:
    return _outcome(lambda: loads(text), kind)


_OPEN_TEXT = b": [\n    [\n"
MATRIX_TEXT = dumps(to_doc("matrix", np.arange(6).reshape(3, 2) + 0.5j)).encode()
LATIN_TEXT = dumps(to_doc("latin", CYCLIC3.cells)).encode()
_CLOSE_TEXT = b"\n    ]\n  ]"
_LAST_CELL = b"1" + _CLOSE_TEXT  # the last leaf of LATIN_TEXT, in its third element


def _text(kind, payload, **header):
    return dumps({"format": FORMAT, "kind": kind, SCHEMAS[kind].payload: payload, **header}).encode()


# texts in the canonical layout whose payload a run-by-run parse must not
# read differently from a whole parse, each with the kind it is read as
LOOKALIKES = {
    "a later duplicate key": ("matrix", MATRIX_TEXT.replace(b"\n}", b',\n  "entries": []\n}')),
    "an escaped duplicate key": ("matrix", MATRIX_TEXT.replace(b"\n}", b',\n  "\\u0065ntries": []\n}')),
    "the key as a value too": ("matrix", MATRIX_TEXT.replace(b'"matrix"', b'"entries"')),
    "the list nested a level deeper": ("matrix", b'{"outer": ' + MATRIX_TEXT + b"}"),
    "the list in a list": ("matrix", b"[" + MATRIX_TEXT + b"]"),
    "the key after another on its line": ("matrix", MATRIX_TEXT.replace(b'2,\n  "entries"', b'2, "entries"')),
    "an exponent after the list": ("matrix", MATRIX_TEXT.replace(b"\n  ],", b"\n  ]e5,")),
    "a fraction after the list": ("matrix", MATRIX_TEXT.replace(b"\n  ],", b"\n  ].5,")),
    "a NaN in an element": ("matrix", MATRIX_TEXT.replace(b"0.5", b"NaN", 1)),
    "an element cut short": ("matrix", MATRIX_TEXT.replace(b"\n    ],\n    [", b"\n    ,\n    [", 1)),
    "an unclosed list": ("matrix", MATRIX_TEXT.replace(b"\n    ]\n  ]", b"\n    ]\n  ")),
    "a true leaf in a later run": ("matrix", MATRIX_TEXT.replace(b"4.0", b"true")),
    "a 2**63 leaf in an all-int run": ("latin", LATIN_TEXT.replace(b"2", str(2**63).encode(), 1)),
    "a 2**64 leaf in an all-int run": ("latin", LATIN_TEXT.replace(b"2", str(2**64).encode(), 1)),
    "a run whose element shape differs": ("matrix", _text("matrix", [[[0.0, 0.5]], [[1.0, 0.5, 2.0]]],
                                                          rows=2, cols=1)),
    "the payload of another kind": ("basis", MATRIX_TEXT.replace(b'"matrix"', b'"basis"')),
    "int runs beside a float run, latin": ("latin", _text("latin", [[0, 1], [1.0, 0]], n=2)),
    "int runs beside a float run, pairs": ("matrix", _text("matrix", [[[1, 0]], [[0.5, 0.0]]], rows=2, cols=1)),
    "a 1E5 leaf in a later int run": ("latin", LATIN_TEXT.replace(_LAST_CELL, b"1E5" + _CLOSE_TEXT)),
    "a 2**63 leaf in a later element": ("latin", LATIN_TEXT.replace(_LAST_CELL, str(2**63).encode() + _CLOSE_TEXT)),
    "a -2**63 - 1 leaf in a later element": ("latin", LATIN_TEXT.replace(
        _LAST_CELL, str(-2**63 - 1).encode() + _CLOSE_TEXT)),
    "a string leaf in a later run": ("matrix", MATRIX_TEXT.replace(b"4.0", b'"4.0"')),
    "a null leaf in a later run": ("matrix", MATRIX_TEXT.replace(b"4.0", b"null")),
    "an object leaf in a later run": ("matrix", MATRIX_TEXT.replace(b"4.0", b"{}")),
    "a list at leaf depth in a later element, pairs": ("matrix", MATRIX_TEXT.replace(b"4.0", b"[4.0]")),
    "a list at leaf depth in a later element, latin": ("latin", LATIN_TEXT.replace(_LAST_CELL, b"[1]" + _CLOSE_TEXT)),
    "an empty element": ("latin", _text("latin", [[0, 1], [], [1, 0]], n=2)),
    "empty elements only": ("matrix-list", _text("matrix-list", [[[]], [[]]], count=2, rows=1, cols=1)),
}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_the_canonical_layout_is_read_in_runs(monkeypatch, kind):
    text = dumps(to_doc(kind, SAMPLES[kind])).encode()
    monkeypatch.setattr(serialize, "_RUN", 0)
    doc = serialize._loads_in_runs(text)
    assert type(doc[SCHEMAS[kind].payload]) is np.ndarray
    assert _outcome(lambda: doc, kind) == _whole_outcome(text, kind)


_MEMBERS = _RNG.standard_normal((48, 16, 16)) + 1j * _RNG.standard_normal((48, 16, 16))
# texts of several runs: the payload followed by another top-level list of
# lists, whose close ends the text's last run, and the payload as the last key
LONG_TEXTS = {
    "a list after the payload": ("matrix-list", dumps({**to_doc("matrix-list", _MEMBERS),
                                                        "zz": np.arange(4).reshape(2, 2)}).encode()),
    "the payload last": ("vector-list", dumps(to_doc("vector-list", _MEMBERS.reshape(48, -1))).encode()),
}
LONG_EDITS = {
    "as written": lambda text: text,
    "a header that does not fit": lambda text: text.replace(b'"count": 48', b'"count": 47'),
    "a true leaf in the last element": lambda text: _last_leaf_made(text, b"true"),
}


def _last_leaf_made(text: bytes, leaf: bytes) -> bytes:
    """``text`` with the last leaf of its payload, the first top-level list of
    lists, replaced by ``leaf``."""
    dot = text.rindex(b".", 0, text.index(b"\n    ]\n  ]"))
    start, end = text.rindex(b" ", 0, dot) + 1, text.index(b"\n", dot)
    return text[:start] + leaf + text[end:]


@pytest.mark.parametrize("edit", sorted(LONG_EDITS))
@pytest.mark.parametrize("name", sorted(LONG_TEXTS))
def test_a_text_of_several_runs_reads_as_a_whole_parse(tmp_path, name, edit):
    kind, text = LONG_TEXTS[name]
    text = LONG_EDITS[edit](text)
    assert len(text) > 2 * serialize._RUN
    assert _read_outcome(text, tmp_path / "doc.json", kind) == _whole_outcome(text, kind)
    if edit == "as written" and name == "the payload last":  # read in runs
        assert type(serialize._loads_in_runs(text)[SCHEMAS[kind].payload]) is np.ndarray


@pytest.mark.parametrize("run", [0, 1 << 18])
@pytest.mark.parametrize("name", sorted(LOOKALIKES))
def test_a_lookalike_of_the_layout_reads_as_a_whole_parse(tmp_path, monkeypatch, name, run):
    kind, text = LOOKALIKES[name]
    assert _OPEN_TEXT in text
    monkeypatch.setattr(serialize, "_RUN", run)
    assert _read_outcome(text, tmp_path / "doc.json", kind) == _whole_outcome(text, kind)
    # a payload read in runs is int64 exactly when every leaf is an int
    doc = serialize._loads_in_runs(text)
    if doc is not None:
        key = SCHEMAS[kind].payload
        leaves = _leaves(loads(text)[key])
        assert (doc[key].dtype == np.int64) == all(type(x) is int for x in leaves)


def _leaves(value) -> list:
    return [leaf for item in value for leaf in _leaves(item)] if type(value) is list else [value]


EDITS = st.sampled_from([b"", b" ", b"\n", b",", b"[", b"]", b"{", b"}", b'"', b"\\", b"0", b".5", b"e5",
                         b"NaN", b"\n    ],\n    [", b'"entries": [],', b"\xff"])


@settings(max_examples=200, deadline=None, database=None)
@given(documents(), st.lists(st.tuples(st.floats(0, 1), st.integers(0, 3), EDITS), max_size=3))
def test_an_edited_document_reads_as_a_whole_parse(tmp_path_factory, doc, edits):
    """Texts near the canonical layout, parsed one element per run or in one
    run, read as the whole text parses: the same payload through ``from_doc``
    and the same other values, or the same error."""
    text = dumps(doc).encode()
    for where, cut, edit in edits:
        at = round(where * len(text))
        text = text[:at] + edit + text[at + cut:]
    path, kind = tmp_path_factory.mktemp("doc") / "doc.json", doc["kind"]
    for run in (0, 1 << 18):
        with mock.patch.object(serialize, "_RUN", run):
            assert _read_outcome(text, path, kind) == _whole_outcome(text, kind)


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
