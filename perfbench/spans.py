"""Spans at the boundary between ``qlsmub.cli`` and the library modules.

Tracing is installed from outside the program: the public functions that
``qlsmub.cli`` calls into each module are replaced by wrappers that record a
span (layer, start, end, parent) and count the work the call did.  The
``serialize`` functions are wrapped in their own module, because the CLI
reaches them as ``serialize.<name>``; their calls to each other (for example
``save_path`` to ``dumps``) become child spans.  Functions reached only from
inside another layer stay inside that layer's span.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from qlsmub import cli, serialize

from workloads import LATIN_COUNTS

LAYERS = ("cli", "serialize", "squares", "hadamard", "bases", "ueb", "search")


def _work(name: str, args: tuple, result) -> dict[str, int]:
    """Exact work counts of one call, keyed by counter name."""
    if name == "load_path":
        return {"serialize.bytes_read": os.path.getsize(args[0])}
    if name == "save_path":
        return {"serialize.bytes_written": os.path.getsize(args[0])}
    if name == "monomial_obstruction":
        m, n = len(args[0]), args[0].n
        pairs = m * (m - 1) // 2
        # two complex n x n products per commutator, 8 n^3 real flops each
        return {"ueb.pairs": pairs, "ueb.sweep_flop": pairs * 2 * 8 * n**3}
    if name == "enumerate_latin":
        return {"search.squares": result.count}
    if name == "count_latin_by_columns":
        return {"search.squares": result}
    if name == "find_orthogonal_pairs":
        return {"search.pairs": LATIN_COUNTS[args[0]] ** 2}
    if name == "cross_validate_lemma16":
        return {"search.pairs": result.pairs_checked}
    return {}


class Tracer:
    """Spans and work counts of one pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, layer: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([layer, perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()
        self.counts.update(_work(fn.__name__, args, result))
        return result

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer: span time minus its child spans."""
        child = [0.0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: (0, 0.0) for layer in LAYERS}
        for (layer, start, end, _parent), inner in zip(self.spans, child):
            calls, self_s = totals[layer]
            totals[layer] = (calls + 1, self_s + (end - start - inner))
        return totals


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, layer) for every function the CLI calls into a layer."""
    targets = []
    for name, obj in vars(cli).items():
        layer = getattr(obj, "__module__", "").rpartition(".")[2]
        if inspect.isfunction(obj) and obj.__module__ != cli.__name__ and layer in LAYERS:
            targets.append((cli, name, layer))
    for name, obj in vars(serialize).items():
        if (
            inspect.isfunction(obj)
            and obj.__module__ == serialize.__name__
            and not name.startswith("_")
        ):
            targets.append((serialize, name, "serialize"))
    return targets


def _wrap(tracer: Tracer, layer: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(layer, fn, *args, **kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route the CLI's calls into each layer through ``tracer`` until exit."""
    originals = [(owner, name, getattr(owner, name), layer) for owner, name, layer in _targets()]
    for owner, name, fn, layer in originals:
        setattr(owner, name, _wrap(tracer, layer, fn))
    try:
        yield tracer
    finally:
        for owner, name, fn, _layer in originals:
            setattr(owner, name, fn)
