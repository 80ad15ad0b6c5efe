"""JSON file formats for grids, tables, matrices, families, and bases.

Every document carries ``format: "qlsmub/1"``, a ``kind``, the integer header
fields that size its payload, and the payload; ``SCHEMAS`` lists them per
kind.  Complex numbers are [re, im] pairs.  Serialization is canonical (sorted
keys, fixed indentation, trailing newline): re-encoding reproduces the bytes.

In memory a payload is a numpy array, float64 [re, im] pairs or int64
cells: ``to_doc`` builds it as one, which orjson writes directly.
``load_path`` reads a payload a run of elements at a time: orjson parses the
run into nested lists, and they become the run's part of one array at once,
so only one run's lists are ever alive.  ``from_doc`` takes such an array or
nested lists.

orjson is the codec.  Reading is strict RFC 8259.  Writing gives exactly the
stdlib's ``indent=2`` text: orjson writes the whole document, arrays included,
and spells its floats as ``repr`` does once a few exponent forms are
re-spelled.  The stdlib writes it only when orjson refuses it, or when
orjson's text holds ``null`` or a byte from 0x7f up.
"""

from __future__ import annotations

import json
import reprlib
from functools import cache
from itertools import chain
from math import isqrt, prod
from operator import index
from typing import Callable, NamedTuple

import numpy as np
import orjson

from .bases import BipartiteBasis
from .squares import LatinSquare, VectorGrid

FORMAT = "qlsmub/1"


class SerializeError(ValueError):
    """Malformed document: wrong format tag, kind, header, or payload."""


class Schema(NamedTuple):
    payload: str  # key of the payload array
    axes: tuple[str, ...]  # header key sizing each payload axis, value^2 if square
    square: bool = False
    pairs: bool = True  # [re, im] leaves; else JSON integer leaves
    build: Callable | None = None  # payload -> the object read() returns


SCHEMAS = {
    "grid": Schema("entries", ("n", "n", "n"), build=VectorGrid),
    "latin": Schema("cells", ("n", "n"), pairs=False, build=LatinSquare),
    "matrix": Schema("entries", ("rows", "cols")),
    "matrix-list": Schema("members", ("count", "rows", "cols")),
    "basis": Schema("states", ("n", "n"), True, build=lambda s: BipartiteBasis(isqrt(len(s)), s)),
    "vector-list": Schema("vectors", ("count", "dim")),
}


def dumps(doc: dict) -> str:
    """Canonical RFC 8259 JSON: the text of ``json.dumps(doc, sort_keys=True,
    indent=2, allow_nan=False)`` plus a newline, so a NaN or infinity raises
    ``ValueError``.

    orjson writes the whole document, re-spelled where its spelling of a float
    differs from ``repr``.  The stdlib writes it instead, errors included,
    when orjson refuses it (an int wider than 64 bits, a float subclass, a
    non-str key, a cycle), or when orjson's text holds ``null`` (a None, NaN
    or infinity) or a byte from 0x7f up, which the stdlib escapes.  The
    document holds JSON values only: orjson also writes a datetime, UUID,
    Enum or dataclass, which the stdlib refuses.
    """
    return b"".join(_encode(doc)).decode()


def _encode(doc: dict) -> list:
    """The text of ``dumps(doc)`` as UTF-8 pieces: bytes, or views of orjson's."""
    _check_spelling()
    option = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
    if all(type(v) in (str, int) or type(v) is np.ndarray and v.dtype in _NATIVE and v.flags.c_contiguous
           for v in doc.values()):  # shaped as to_doc's
        option |= orjson.OPT_SERIALIZE_NUMPY
    try:
        text = orjson.dumps(doc, option=option)
    except TypeError:  # an int wider than 64 bits, a float subclass, a non-str key, a cycle, an array
        text = None
    if text is None or _holds_null(text) or not text.isascii() or b"\x7f" in text:
        return [json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_listed).encode(), b"\n"]
    return _respelled(text) + [b"\n"]


# the payload dtypes, native-endian: the arrays orjson writes as the stdlib
# writes their tolist(), if C-contiguous too.  orjson writes float32 at
# float32's shortest digits and a byte-swapped array as if it were native.
_NATIVE = (np.dtype(np.float64), np.dtype(np.int64))


def _listed(value):
    """An array as nested lists for the stdlib writer, which refuses the rest."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _holds_null(text: bytes) -> bool:
    """``b"null" in text``, found as each ``u``: a one-byte ``find`` is a
    memchr, while the substring search steps byte by byte through digits."""
    at = text.find(b"u")
    while at >= 0 and text[at - 1:at + 3] != b"null":
        at = text.find(b"u", at + 1)
    return at >= 0


# floats that orjson may spell differently from repr: integral, exponent and
# small forms, and the ends of the doubles; under keys too, one holding an
# "e"; and in arrays, which orjson spells by its own code, with int64's ends
_FLOATS = [100.0, 1e15, 1e16, 1e22, 0.0001, 1e-05, 1.5e-07, -0.0, 0.1, 5e-324, 1.7976931348623157e308, 7]
_PROBE = {
    "e": 1,
    "float": 1e16,
    "floats": _FLOATS,
    "ints": np.array([[-2**63, 0], [7, 2**63 - 1]], dtype=np.int64),
    "pairs": np.array(_FLOATS, dtype=np.float64).reshape(-1, 2),
    "tol": 1e-09,
}


@cache
def _check_spelling() -> None:
    """Raise unless the installed orjson's text of ``_PROBE``, re-spelled, is
    the stdlib's: orjson does not promise the float notation that
    :func:`_respelled` undoes, nor that it spells an array as its list."""
    option = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
    text = orjson.dumps(_PROBE, option=option)
    if b"".join(_respelled(text)) != json.dumps(_PROBE, sort_keys=True, indent=2, default=_listed).encode():
        raise RuntimeError(f"orjson {orjson.__version__} spells floats as this module cannot re-spell")


def _respelled(text: bytes) -> list:
    """``text``, orjson's indented text of a document, in pieces, with each
    float spelled as ``repr`` spells it.

    orjson prints the same shortest round-trip digits as ``repr``, so only the
    notation can differ, and only in a token with an ``e`` (1e16 for 1e+16,
    1.5e-7 for 1.5e-07) or a ``0.0000`` (0.00001 for 1e-05).  Each number ends
    a line of its own, after the line's last ``": `` on a key line, which
    ``repr(float(token))`` rewrites exactly.  A token is a number if it starts
    with ``-`` or a digit and ends in a digit: a string ends in ``"``.  The
    other pieces are views of ``text``, so it is never copied.
    """
    lines = set()
    for needle in (b"e", b"0.0000"):
        at = text.find(needle)
        while at >= 0:
            end = text.find(b"\n", at) % (len(text) + 1)  # the last line has no newline
            lines.add((text.rfind(b"\n", 0, at) + 1, end))
            at = text.find(needle, end)
    view, pieces, done = memoryview(text), [], 0
    for start, end in sorted(lines):
        key = text.rfind(b'": ', start, end)
        start = start if key < 0 else key + 3
        line = text[start:end]  # indentation or a key, one value, maybe a comma
        token = line.strip(b" ,")
        if token[:1] in b"-0123456789" and token[-1:].isdigit() and (b"e" in token or b"0.0000" in token):
            at = start + line.index(token)
            pieces += [view[done:at], repr(float(token)).encode()]
            done = at + len(token)
    return pieces + [view[done:]]


def loads(text: str | bytes) -> dict:
    """The JSON object in ``text``, parsed strictly: RFC 8259 only, so NaN and
    Infinity tokens, a BOM, invalid UTF-8 and a number beyond the doubles are
    ``not valid JSON``.  An integer outside the 64-bit range reads as a float."""
    try:
        doc = orjson.loads(text)
    except (orjson.JSONDecodeError, RecursionError) as exc:
        raise SerializeError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializeError("document is not a JSON object")
    return doc


def to_doc(kind: str, array) -> dict:
    """The ``kind`` document of ``array``, its header read off the shape and its
    payload a C-contiguous array: float64 [re, im] pairs, or int64 cells.  An
    empty axis, which nested lists cannot carry, raises :class:`SerializeError`."""
    schema = SCHEMAS[kind]
    arr = np.array(array, dtype=np.complex128 if schema.pairs else np.int64, order="C")
    if 0 in arr.shape:
        raise SerializeError(f"cannot write a {kind} document with an empty axis {arr.shape}")
    doc = {"format": FORMAT, "kind": kind}
    for key, size in zip(schema.axes, arr.shape):
        doc[key] = isqrt(size) if schema.square else size
    doc[schema.payload] = arr.view(np.float64).reshape(*arr.shape, 2) if schema.pairs else arr
    return doc


def from_doc(doc, kind: str) -> np.ndarray:
    """The payload array of a ``kind`` document, or a :class:`SerializeError`.

    Header values must be JSON integers >= 1, integer leaves JSON integers,
    and [re, im] leaves finite JSON numbers (int or float, never bool).  A
    payload in nested lists is walked as :func:`_walk` says.  Then, in order:
    (1) a ragged level and (2) leaves that one ``np.array`` cannot convert to
    the walk's shape are not numbers; (3) [re, im] pairs must nest to the
    header's depth; (4) a leaf must be of a JSON type the kind allows; (5)
    [re, im] leaves must be finite, and the shape must be the header's.  An
    int64 or float64 array payload, as :func:`to_doc` and :func:`load_path`
    leave it, is what the walk would read: its shape, and int leaves for
    int64 or at least one float leaf for float64; checks (3) to (5) follow.
    """
    if not isinstance(doc, dict):
        raise SerializeError("document is not a JSON object")
    if doc.get("format") != FORMAT:
        tag = reprlib.repr(doc.get("format"))  # bounded: a tag may nest deeper than repr recurses
        raise SerializeError(f"unsupported format tag {tag}, expected {FORMAT!r}")
    if doc.get("kind") != kind:
        raise SerializeError(f"kind {reprlib.repr(doc.get('kind'))}, expected {kind!r}")
    schema = SCHEMAS[kind]
    for key in schema.axes:
        if type(doc.get(key)) is int and doc[key] < 1:
            raise SerializeError(f"{kind} header {key} is {doc[key]}, expected at least 1")
    what, arr = f"{kind} {schema.payload}", doc.get(schema.payload)
    bad = f"{what}: entries are not numbers" if schema.pairs else f"{what} are not integers"
    if type(arr) is np.ndarray and arr.dtype in _NATIVE:
        types = {int} if arr.dtype == np.int64 else {float}
    else:
        try:
            shape, parents = _walk(arr, _sequence_length)
        except ValueError as exc:  # a ragged level
            raise SerializeError(bad) from exc
        leaves = list(chain.from_iterable(parents))
        types = set(map(type, leaves))
        if types & {list, tuple}:  # a sequence among the leaves
            raise SerializeError(bad)
        try:
            arr = np.array(leaves, dtype=np.float64 if schema.pairs else np.int64).reshape(shape)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SerializeError(bad) from exc
    depth = len(schema.axes)
    if schema.pairs and (arr.ndim != depth + 1 or arr.shape[-1] != 2):
        raise SerializeError(f"{what}: expected nesting depth {depth} of [re, im] pairs")
    if not types <= ({int, float} if schema.pairs else {int}):
        raise SerializeError(bad)
    if schema.pairs:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise SerializeError(f"{what}: non-finite entries")
        arr = arr.view(np.complex128)[..., 0]  # exact, signed zeros included
    header = [doc.get(key) for key in schema.axes]
    if any(type(v) is not int for v in header) or arr.shape != tuple(
            v * v if schema.square else v for v in header):
        detail = f"n={reprlib.repr(doc.get('n'))}" if set(schema.axes) == {"n"} else "header"
        raise SerializeError(f"{what} shape {arr.shape} does not match {detail}")
    return arr


def _walk(top, length=len) -> tuple[list, list]:
    """The shape of ``top`` and the sequences that hold its leaves, found from
    lengths alone: while the first value of a level is a list or tuple, the
    one ``length`` of the level's values joins the shape and the level is
    flattened; a ``top`` that is no list or tuple is its own leaf.  Two
    lengths raise ``ValueError``, and so does ``None`` beside a length.
    ``len`` raises ``TypeError`` on a number among sequences but takes a str
    or dict for one, so a caller that may meet those passes a ``length`` that
    gives ``None`` for them."""
    shape, level = [], [top]
    while type(level[0]) in (list, tuple):
        sizes = set(map(length, level))
        if len(sizes) != 1:
            raise ValueError("a ragged level")
        shape += sizes
        if not shape[-1] or type(level[0][0]) not in (list, tuple):
            return shape, level
        level = list(chain.from_iterable(level))
    return shape, [level]


def _sequence_length(value) -> int | None:
    return len(value) if type(value) in (list, tuple) else None


def read(path: str, kind: str):
    """The ``kind`` payload at ``path``, as the schema's ``build`` object if it has one."""
    arr = from_doc(load_path(path), kind)
    build = SCHEMAS[kind].build
    try:
        return build(arr) if build else arr
    except ValueError as exc:
        raise SerializeError(str(exc)) from exc


def grid_doc(grid: VectorGrid) -> dict:
    return to_doc("grid", grid.array)


def grid_from_doc(doc: dict) -> VectorGrid:
    return VectorGrid(from_doc(doc, "grid"))


def matrix_list_doc(members) -> dict:
    return to_doc("matrix-list", members)


def load_path(path: str) -> dict:
    """The JSON object in the file at ``path``, parsed as :func:`loads` does,
    except that a payload in the canonical layout comes back as one array:
    int64 if every leaf is an int, float64 if any is a float."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise SerializeError(f"cannot read {path}: {exc}") from exc
    doc = _loads_in_runs(text)
    return loads(text) if doc is None else doc


# how the canonical text opens, separates and closes the elements of a
# top-level list of lists; each holds a raw newline, which no JSON string can
_OPEN, _NEXT, _CLOSE = b": [\n    [\n", b"\n    ],\n    [", b"\n    ]\n  ]"
_RUN = 1 << 18  # bytes of text parsed at a time, at least


def _loads_in_runs(text: bytes) -> dict | None:
    """The JSON object in ``text`` with its payload, the first top-level list
    of lists, parsed a run of elements at a time into one array, or None if
    the whole text is to be parsed.

    orjson keeps a parsed copy of its input while it builds the objects, and
    nested lists cost many times their array; each run is made an array as
    soon as it is parsed, so the copy and the lists alive are one run's.
    Runs are cut where the canonical layout puts ``_NEXT``.  Each must be a
    regular array of JSON numbers (:func:`_run_array`) with the element
    shape of the others.  The rest of the text, with ``[]`` in the list's
    place, must parse to an object whose only occurrence of the list's key
    holds that ``[]``, the payload key of its kind; the text is that object
    with the runs joined there.  Anything else, such as an escape in the
    rest, is left to the whole parse, which also words the error for text
    that is not JSON.
    """
    opened = text.find(_OPEN)
    if opened < 0:
        return None
    runs, start = [], opened + 3
    try:  # a run of elements ends at its last "]"
        while (end := text.find(_NEXT, start + _RUN)) >= 0:
            runs.append(_run_array(text, start, end + 6))
            start = end + 7
        end = text.find(_CLOSE, start)
        if end < 0:
            return None
        runs.append(_run_array(text, start, end + 6))
        payload = np.concatenate(runs)  # a ValueError if element shapes differ
        key = text[text.rfind(b"\n", 0, opened) + 1:opened].strip()
        rest = text[:opened + 2] + b"[]" + text[end + len(_CLOSE):]
        if b"\\" in rest or rest.count(key) != 1:
            return None
        doc, name = orjson.loads(rest), orjson.loads(key)
    except (ValueError, OverflowError, RecursionError):  # JSONDecodeError is a ValueError
        return None
    if type(doc) is not dict or doc.get(name) != [] or name not in {
            schema.payload for kind, schema in SCHEMAS.items() if kind == doc.get("kind")}:
        return None
    doc[name] = payload
    return doc


def _run_array(text: bytes, start: int, end: int) -> np.ndarray:
    """The run of payload elements in ``text[start:end]`` as one array; a
    ``ValueError`` if it is not a regular array of JSON numbers, or an
    ``OverflowError`` for an int beyond int64.

    One-byte scans of the run stand in for a pass over its leaves: a string,
    literal or object spells a ``"``, ``t``, ``f``, ``n`` or ``{``, and the
    array is float64 if a ``.``, ``e`` or ``E`` spells a float, else int64.
    The dtype is given, never inferred: numpy makes 2**63 beside small ints
    a float.  The shape comes from the lengths alone (:func:`_walk`), and
    ``np.fromiter`` takes the leaves without a list of them.  An int leaf
    goes through ``operator.index``, which refuses a list and the float that
    orjson reads for an int beyond 64 bits.  The scans read ``text`` in
    place, so the run's bracketed copy lives only as long as its parse.
    """
    if any(text.find(byte, start, end) >= 0 for byte in b'"tfn{'):
        raise ValueError("not a regular array of numbers")
    floats = any(text.find(byte, start, end) >= 0 for byte in b".eE")
    try:
        shape, parents = _walk(orjson.loads(b"[" + text[start:end] + b"]"))
        leaves = chain.from_iterable(parents)
        if floats:
            arr = np.fromiter(leaves, np.float64, prod(shape))
        else:
            arr = np.fromiter(map(index, leaves), np.int64, prod(shape))
    except TypeError as exc:  # a number at a list level, or a list among the leaves
        raise ValueError("not a regular array of numbers") from exc
    return arr.reshape(shape)


def save_path(path: str, doc: dict) -> None:
    parts = _encode(doc)  # before opening, so that a document that fails leaves no file
    try:
        with open(path, "wb") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise SerializeError(f"cannot write {path}: {exc}") from exc
