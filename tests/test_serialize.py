import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

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

from helpers import reference_dumps

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


TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["two\nlines", 'say "hi"', "back\\slash", "é"]))
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
def test_dumps_is_the_stdlib_text(doc):
    assert dumps(doc) == reference_dumps(doc)


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
