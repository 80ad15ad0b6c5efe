"""JSON file formats for grids, tables, matrices, families, and bases.

Every document carries ``format: "qlsmub/1"``, a ``kind``, the integer header
fields that size its payload, and the payload; ``SCHEMAS`` lists them per
kind.  Complex numbers are [re, im] pairs.  Serialization is canonical (sorted
keys, fixed indentation, trailing newline): re-encoding reproduces the bytes.

orjson is the codec.  Reading is strict RFC 8259.  Writing gives exactly the
stdlib's ``indent=2`` text: orjson writes the whole document, whose floats it
spells as ``repr`` does once a few exponent forms are re-spelled.  The stdlib
writes it only when orjson refuses it, or when orjson's text holds ``null`` or
a byte from 0x7f up.
"""

from __future__ import annotations

import json
import reprlib
from functools import cache
from itertools import chain
from math import isqrt
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
    try:
        text = orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS)
    except TypeError:  # an int wider than 64 bits, a float subclass, a non-str key, a cycle
        text = None
    if text is None or b"null" in text or not text.isascii() or b"\x7f" in text:
        return [json.dumps(doc, sort_keys=True, indent=2, allow_nan=False).encode(), b"\n"]
    return _respelled(text) + [b"\n"]


# floats that orjson may spell differently from repr: integral, exponent and
# small forms, and the ends of the doubles; under keys too, one holding an "e"
_PROBE = {
    "e": 1,
    "float": 1e16,
    "floats": [100.0, 1e15, 1e16, 1e22, 0.0001, 1e-05, 1.5e-07, -0.0, 0.1, 5e-324, 1.7976931348623157e308, 7],
    "tol": 1e-09,
}


@cache
def _check_spelling() -> None:
    """Raise unless the installed orjson's text of ``_PROBE``, re-spelled, is
    the stdlib's: orjson does not promise the float notation that
    :func:`_respelled` undoes."""
    text = orjson.dumps(_PROBE, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS)
    if b"".join(_respelled(text)) != json.dumps(_PROBE, sort_keys=True, indent=2).encode():
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
    """The ``kind`` document of ``array``, its header read off the shape; an
    empty axis, which nested lists cannot carry, raises :class:`SerializeError`."""
    schema = SCHEMAS[kind]
    arr = np.asarray(array, dtype=np.complex128 if schema.pairs else np.int64)
    if 0 in arr.shape:
        raise SerializeError(f"cannot write a {kind} document with an empty axis {arr.shape}")
    doc = {"format": FORMAT, "kind": kind}
    for key, size in zip(schema.axes, arr.shape):
        doc[key] = isqrt(size) if schema.square else size
    payload = np.stack([arr.real, arr.imag], axis=-1) if schema.pairs else arr
    doc[schema.payload] = payload.tolist()
    return doc


def from_doc(doc, kind: str) -> np.ndarray:
    """The payload array of a ``kind`` document, or a :class:`SerializeError`.

    Header values must be JSON integers >= 1, integer leaves JSON integers,
    and [re, im] leaves finite JSON numbers (int or float, never bool).
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
    what, data = f"{kind} {schema.payload}", doc.get(schema.payload)
    sizes = [doc.get(key) for key in schema.axes]
    shape = None  # the payload's, as an all-integer header gives it
    if all(type(v) is int for v in sizes):
        shape = tuple(v * v if schema.square else v for v in sizes)
        arr = _regular(data, shape + ((2,) if schema.pairs else ()), schema.pairs)
        if arr is not None:
            return arr
    # the payload is not the header's shape of valid leaves: find what is wrong
    bad = f"{what}: entries are not numbers" if schema.pairs else f"{what} are not integers"
    try:
        arr = np.asarray(data, dtype=np.float64 if schema.pairs else np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SerializeError(bad) from exc
    depth = len(schema.axes)
    if schema.pairs and (arr.ndim != depth + 1 or arr.shape[-1] != 2):
        raise SerializeError(f"{what}: expected nesting depth {depth} of [re, im] pairs")
    leaves = data if arr.ndim else [data]
    for _ in range(arr.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= ({int, float} if schema.pairs else {int}):
        raise SerializeError(bad)
    if schema.pairs:
        if not np.isfinite(arr).all():
            raise SerializeError(f"{what}: non-finite entries")
        arr = arr.view(np.complex128)[..., 0]  # exact, signed zeros included
    if arr.shape != shape:
        detail = f"n={reprlib.repr(doc.get('n'))}" if set(schema.axes) == {"n"} else "header"
        raise SerializeError(f"{what} shape {arr.shape} does not match {detail}")
    return arr


def _regular(data, shape: tuple, pairs: bool) -> np.ndarray | None:
    """The payload array of ``data`` if it is lists nested exactly to
    ``shape`` with valid leaves, finite if ``pairs``; else None.

    One walk, level by level: every element a list of the level's length,
    then the leaves' types checked once and converted in one ``np.array``.
    """
    level = [data]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= ({int, float} if pairs else {int}):
        return None
    try:
        arr = np.array(level, dtype=np.float64 if pairs else np.int64).reshape(shape)
    except OverflowError:  # an int beyond the doubles or the 64-bit range
        return None
    if not pairs:
        return arr
    if not np.isfinite(arr).all():
        return None
    return arr.view(np.complex128)[..., 0]  # exact, signed zeros included


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
    """The JSON object in the file at ``path``, parsed as :func:`loads` does."""
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
    """The JSON object in ``text`` with its first top-level list of lists
    parsed a run of elements at a time, or None if the whole text is to be
    parsed.

    orjson keeps a parsed copy of its input while it builds the objects, so a
    multi-megabyte document parsed whole costs about half as much memory
    again as it did with the stdlib parser; parsed in runs, that copy is one
    run's.  Runs are cut where the canonical layout puts ``_NEXT``.  When
    every run parses, and the rest of the text, with ``[]`` in the list's
    place, parses to an object whose only occurrence of the list's key holds
    that ``[]``, the text is that object with the runs' elements in the list,
    as a whole parse reads it.  Anything else, such as an escape in the rest,
    is left to the whole parse, which also words the error for text that is
    not JSON.
    """
    opened = text.find(_OPEN)
    if opened < 0:
        return None
    items, start = [], opened + 3
    try:  # a run of elements ends at its last "]"
        while (end := text.find(_NEXT, start + _RUN)) >= 0:
            items += orjson.loads(b"[" + text[start:end + 6] + b"]")
            start = end + 7
        end = text.find(_CLOSE, start)
        if end < 0:
            return None
        items += orjson.loads(b"[" + text[start:end + 6] + b"]")
        key = text[text.rfind(b"\n", 0, opened) + 1:opened].strip()
        rest = text[:opened + 2] + b"[]" + text[end + len(_CLOSE):]
        if b"\\" in rest or rest.count(key) != 1:
            return None
        doc, name = orjson.loads(rest), orjson.loads(key)
    except (orjson.JSONDecodeError, RecursionError):
        return None
    if type(doc) is not dict or doc.get(name) != []:
        return None
    doc[name] = items
    return doc


def save_path(path: str, doc: dict) -> None:
    parts = _encode(doc)  # before opening, so that a document that fails leaves no file
    with open(path, "wb") as fh:
        fh.writelines(parts)
