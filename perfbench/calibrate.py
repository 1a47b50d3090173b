"""Machine speed, measured by a fixed kernel run between the ops.

The hosts this benchmark runs on change speed by up to 2x within seconds
and over minutes, because other tenants share the physical cores; CPU time
slows down with wall time, so neither clock alone repeats.  A
``Speedometer`` times a fixed pure-Python kernel (exact Fraction
elimination, a dict-of-tuples polynomial product and gcds of 160-bit
integers, the kinds of work assoform does) at short intervals between ops.  Dividing a measured time
by the kernel's local time, and multiplying by ``REF_SECONDS``, gives
*reference seconds*: what the op would take on a host where one kernel
sample takes ``REF_SECONDS``.  The kernel does not call assoform, so a
faster program lowers reference seconds and a faster host does not.

Interpreter start-up slows less than the kernel on a busy host, so set-up
time has its own reference: a fresh interpreter that imports the standard
library modules assoform imports (``REF_START_CODE``), started right
beside each set-up probe; on the reference host it takes
``REF_START_SECONDS``.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

# The reference host: 2 vCPUs of a shared x86-64 host with CPython 3.11.7,
# where a kernel sample reads 2.5-6 ms and a reference start 55-95 ms.
REF_SECONDS = 0.004
REF_START_SECONDS = 0.060
REF_START_CODE = ("import argparse, dataclasses, enum, fractions, functools, "
                  "itertools, json, math, random, re")
EVERY = 0.1  # seconds between samples, at most; sampling waits for an op to end
WINDOW = 0.5  # samples this far from an op count for it
NEAREST = 2  # and at least this many, the nearest ones

_rng = random.Random(20170302)
_MATRIX = [[Fraction(_rng.randint(-3, 3)) for _ in range(9)] for _ in range(8)]
_POLY = {(i, j, 5 - i - j): _rng.randint(-3, 3) for i in range(6) for j in range(6 - i)}
_INTS = [_rng.getrandbits(160) | 1 for _ in range(40)]


def kernel():
    """RREF of a fixed 8 x 9 matrix, the square of a fixed ternary quintic,
    and 800 gcds of products of 160-bit integers.

    Small-Fraction and dict work slows more than assoform's ops on a busy
    host, big-integer work less; this mix slows about as much as the ops.
    """
    rows = [row[:] for row in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = [x * inverse for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[rank])]
        rank += 1
    square: dict[tuple, int] = {}
    for m1, c1 in _POLY.items():
        for m2, c2 in _POLY.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            square[key] = square.get(key, 0) + c1 * c2
    acc = 0
    for a in _INTS:
        for b in _INTS[:20]:
            acc += math.gcd(a * b + acc, b)
    return rank, len(square), acc


class Speedometer:
    """Kernel samples (midpoint, seconds) on the ``time.perf_counter`` clock."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.last = -1e300

    def sample(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.last = end

    def spent_since(self, start) -> float:
        """Time taken by sampling after ``start``, to leave out of loop times."""
        return sum(s for t, s in self.samples if t > start)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= EVERY:
            self.sample()

    def factor(self, start=None, end=None) -> float:
        """REF_SECONDS over the mean kernel time around [start, end] (all if None)."""
        samples = self.samples
        if start is not None:
            def distance(s):
                return max(start - s[0], s[0] - end, 0.0)
            near = sorted(samples, key=distance)
            inside = [s for s in near if distance(s) <= WINDOW]
            samples = inside if len(inside) >= NEAREST else near[:NEAREST]
        return REF_SECONDS / statistics.fmean(s for _t, s in samples)
