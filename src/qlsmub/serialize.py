"""JSON file formats for grids, tables, matrices, families, and bases.

Every document carries ``format: "qlsmub/1"``, a ``kind``, the integer header
fields that size its payload, and the payload; ``SCHEMAS`` lists them per
kind.  Complex numbers are [re, im] pairs.  Serialization is canonical (sorted
keys, fixed indentation, trailing newline): re-encoding reproduces the bytes.
"""

from __future__ import annotations

import json
from itertools import chain
from math import isqrt
from typing import Callable, NamedTuple

import numpy as np

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

    ``indent`` sends the stdlib to its pure-Python encoder, so a payload array
    is written here instead, one outer row at a time; every other value, and
    every error, is the stdlib's.
    """
    parts = []
    for key, value in sorted(doc.items()):
        parts.append(",\n" if parts else "{\n")
        pieces = _array_pieces(value) if type(key) is str else None
        if pieces is None:  # the stdlib's {key: value} text without its braces
            parts.append(json.dumps({key: value}, sort_keys=True, indent=2, allow_nan=False)[2:-2])
        else:
            parts += [f"  {json.dumps(key)}: ", *pieces]
    return "".join(parts + ["\n}\n"]) if parts else "{}\n"


def _array_pieces(value) -> list[str] | None:
    """The text of ``value`` under a top-level key, as one piece per outer row
    and its separator, if it is a rectangular nested list of finite int and
    float leaves; None for any other value."""
    shape, probe = [], value
    while type(probe) is list and probe:
        shape.append(len(probe))
        probe = probe[0]
    if not shape:
        return None
    layout = _layout(shape[1:], 2)
    pieces = []
    for row in value:
        leaves = [row]
        for size in shape[1:]:
            if set(map(type, leaves)) != {list} or set(map(len, leaves)) != {size}:
                return None
            leaves = list(chain.from_iterable(leaves))
        if not set(map(type, leaves)) <= {int, float}:
            return None
        text = layout % tuple(leaves)
        if "inf" in text or "nan" in text:  # a non-finite float, which the stdlib refuses
            return None
        pieces += [",\n    " if pieces else "[\n    ", text]
    return pieces + ["\n  ]"]


def _layout(shape: list[int], level: int) -> str:
    """The ``indent=2`` text of a nested list of ``shape`` at nesting ``level``,
    with a ``%r`` slot for each leaf."""
    if not shape:
        return "%r"
    inner, item = "\n" + "  " * (level + 1), _layout(shape[1:], level + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * level + "]"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
        raise SerializeError(f"unsupported format tag {doc.get('format')!r}, expected {FORMAT!r}")
    if doc.get("kind") != kind:
        raise SerializeError(f"kind {doc.get('kind')!r}, expected {kind!r}")
    schema = SCHEMAS[kind]
    for key in schema.axes:
        if type(doc.get(key)) is int and doc[key] < 1:
            raise SerializeError(f"{kind} header {key} is {doc[key]}, expected at least 1")
    what, data = f"{kind} {schema.payload}", doc.get(schema.payload)
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
    sizes = [doc.get(key) for key in schema.axes]
    if any(type(v) is not int for v in sizes) or arr.shape != tuple(
        v * v if schema.square else v for v in sizes):
        detail = f"n={doc.get('n')}" if set(schema.axes) == {"n"} else "header"
        raise SerializeError(f"{what} shape {arr.shape} does not match {detail}")
    return arr


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise SerializeError(f"cannot read {path}: {exc}") from exc


def save_path(path: str, doc: dict) -> None:
    text = dumps(doc)  # before opening, so that a document that fails leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
