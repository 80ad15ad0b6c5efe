"""A fixed reference task that measures how fast the host runs right now.

The benchmark's host is a few virtual CPUs of a shared machine.  Other
tenants slow every instruction by varying amounts, over seconds to minutes,
and no statistic over one run removes a slowdown that lasts the whole run.
So the benchmark runs this task before every command and scales the
command's time by ``REFERENCE_S / (time of the task)``: a reported time is
the time the command would take on the host when the task takes
``REFERENCE_S``.  The task does not touch the program, so a change to the
program moves the scaled times as much as the raw ones.

The task mixes the kinds of work the workloads do: pure-Python loops over
dicts and lists (search), JSON encoding and decoding of floats (serialize),
small complex matrix products (bases, ueb), and many numpy calls on tiny
matrices (the ueb commutator sweep).
"""

from __future__ import annotations

import json
import time

import numpy as np

# Time of one unit() on an unloaded 2-vCPU Xeon (Sapphire Rapids, KVM),
# Python 3.11, numpy 2.4 with single-threaded OpenBLAS.
REFERENCE_S = 0.010

_rng = np.random.default_rng(0)
# unitary, so repeated products neither overflow nor decay into subnormals
_MATRIX = np.linalg.qr(_rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48)))[0]
_SMALL = _MATRIX[:16, :16].copy()
_DOC = {"values": _rng.standard_normal((40, 100)).tolist()}
_KEYS = [(i * 7919) % 1021 for i in range(20000)]


def unit() -> None:
    """About REFERENCE_S of mixed work; the result is discarded."""
    totals: dict[int, int] = {}
    for i, key in enumerate(_KEYS):
        totals[key] = totals.get(key, 0) + i
    sorted(totals.items(), key=lambda item: item[1])
    json.loads(json.dumps(_DOC))
    m = _MATRIX
    for _ in range(40):
        m = m @ _MATRIX
    for _ in range(150):
        np.linalg.norm(_SMALL @ _SMALL.T - _SMALL.T @ _SMALL)


def timed_unit() -> tuple[float, float]:
    """(wall seconds, process CPU seconds) of one unit()."""
    t0, c0 = time.perf_counter(), time.process_time()
    unit()
    return time.perf_counter() - t0, time.process_time() - c0
