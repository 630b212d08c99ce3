"""A fixed reference loop, timed between operations to calibrate them.

On a shared machine the same operation can take anywhere from 1x to 1.6x
its quiet time from one process to the next, and the reference loop slows
down with it.  Dividing an operation's time by the local reference time
cancels most of that drift.  The loop mixes the three kinds of work the
workloads do -- object-heavy Taylor arithmetic in pure Python, small-array
numpy calls, and float formatting into JSON -- and uses no twistor4 code, so
a change to the program never changes it.  Never edit it: calibrated
figures are comparable only while the loop stays the same.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# Quiet time of one unit on the reference machine (2-core Intel Xeon,
# CPython 3.11, numpy 2.4): calibrated time = raw time * NOMINAL_UNIT_MS /
# the measured time of a unit around the operation.
NOMINAL_UNIT_MS = 4.0


class _Jet:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b=0.0, c=0.0):
        self.a, self.b, self.c = a, b, c

    def __add__(self, o):
        return _Jet(self.a + o.a, self.b + o.b, self.c + o.c)

    def __mul__(self, o):
        return _Jet(self.a * o.a, self.a * o.b + self.b * o.a,
                    self.a * o.c + 2.0 * self.b * o.b + self.c * o.a)


def _taylor() -> float:
    acc = 0.0
    for i in range(150):
        x = _Jet(0.01 * i, 1.0)
        y = x
        for k in range(6):
            y = y * x + _Jet(math.sin(0.1 * k))
        acc += y.c
    return acc


def _small_arrays() -> float:
    acc = 0.0
    m = np.eye(4) + 0.01
    for _ in range(40):
        q, _r = np.linalg.qr(m)
        acc += float(np.einsum("ij,ij->", q, m))
    return acc


def _serialize() -> float:
    return float(len(json.dumps([k / 7.0 for k in range(300)], indent=2)))


PARTS = (_taylor, _small_arrays, _serialize)


def time_reference(units: int) -> list:
    """Seconds taken by each part of a reference sample of `units` units.
    Calibration uses their sum; the parts are kept in each run's detail file
    so that a drift in one kind of work can be told apart."""
    out = []
    for part in PARTS:
        t0 = time.perf_counter()
        for _ in range(units):
            part()
        out.append(time.perf_counter() - t0)
    return out
