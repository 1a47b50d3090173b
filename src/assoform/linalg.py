"""Exact dense linear algebra over the rationals.

Matrices store ``fractions.Fraction`` entries row-major and are immutable.
Every result (RREF, kernel bases) is canonical: the RREF of a matrix is
unique, whichever pivot rows the elimination picks.

Every elimination runs on one integer Gauss-Jordan core: each row is
scaled to a primitive integer row, row operations stay in the integers, and
the canonical Fraction RREF is formed once at the end, so the bases are
those of elimination over Fractions.

``rank`` first reduces the integer rows modulo the fixed prime ``_PRIME``.
The rank mod p of an integer matrix never exceeds its rank over Q (a
nonzero minor mod p is a nonzero integer minor), so when the rank mod p
equals min(rows, cols) it is the exact rank.  Scaling rows to integers
first means a denominator divisible by p needs no special case.  Only
when the rank mod p comes out short does the exact integer core run.

Each subspace is read off one elimination: ``kernel_of_rref`` reads a
kernel off an RREF at hand, ``null_space`` reduces once for the canonical
kernel basis, and ``unit_columns`` reads unit-vector membership off an RREF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Modulus of the full-rank certificate in rank(): the largest prime below
# 2^30, so every residue is a single-digit CPython int.
_PRIME = (1 << 30) - 35


@dataclass(frozen=True)
class QMatrix:
    """Immutable rows x cols matrix of Fractions (entries[i][j])."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("entry grid does not match row count")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("entry grid does not match column count")


def from_rows(rows, cols: int | None = None) -> QMatrix:
    """Build a QMatrix from an iterable of rows of ints/Fractions.

    ``cols`` is required when ``rows`` is empty.
    """
    grid = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                 for row in rows)
    if grid:
        ncols = len(grid[0])
    elif cols is None:
        raise ValueError("column count required for a matrix with no rows")
    else:
        ncols = cols
    return QMatrix(len(grid), ncols, grid)


def _primitive(row: list[int]) -> list[int]:
    """Divide an integer row by its content (the gcd of its entries)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row) -> list[int]:
    """A primitive integer multiple of a rational row."""
    scale = math.lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (scale // x.denominator) for x in row])


def _gauss_jordan(rows: list[list[int]], ncols: int) -> list[int]:
    """In-place integer Gauss-Jordan on the first ncols columns.

    Returns the pivot columns.  Pivot row r ends with its pivot in column
    pivots[r] and zeros in every other pivot column; rows below the rank
    are zero on the first ncols columns.  Each update is
    row_i = (p/g) row_i - (a/g) pivot_row with g = gcd(p, a), followed by
    division by the row content, so entries stay integers of modest size.
    """
    pivots: list[int] = []
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        candidates = [i for i in range(r, nrows) if rows[i][c]]
        if not candidates:
            continue
        # any pivot row gives the same RREF; a small pivot keeps rows short
        pivot = min(candidates, key=lambda i: abs(rows[i][c]))
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        tail = rows[r][c:]
        for i in range(nrows):
            a = rows[i][c]
            if not a or i == r:
                continue
            g = math.gcd(p, a)
            pg, ag = p // g, a // g
            row = rows[i]
            head = row[:c] if pg == 1 else [pg * x for x in row[:c]]
            rows[i] = _primitive(head + [pg * x - ag * y for x, y in zip(row[c:], tail)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_rows(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan; returns (rows, pivot columns).

    The elimination runs on primitive integer rows; each pivot row is
    divided by its pivot only at the end, which gives the canonical RREF.
    """
    ints = [_integer_row(row) for row in rows]
    pivots = _gauss_jordan(ints, ncols)
    zero = Fraction(0)
    for i, row in enumerate(ints):
        p = row[pivots[i]] if i < len(pivots) else 1
        rows[i] = [Fraction(x, p) if x else zero for x in row]
    return rows, pivots


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; row space preserved."""
    rows = [list(r) for r in m.entries]
    rows, pivots = _rref_rows(rows, m.cols)
    grid = tuple(tuple(row) for row in rows)
    return QMatrix(m.rows, m.cols, grid), tuple(pivots)


def row_space_basis(m: QMatrix) -> QMatrix:
    """Canonical basis of the row space: RREF with zero rows dropped."""
    reduced, pivots = rref(m)
    grid = reduced.entries[: len(pivots)]
    return QMatrix(len(pivots), m.cols, grid)


def _rank_mod_p(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix over GF(_PRIME); never above its rank over Q."""
    p = _PRIME
    rows = [[x % p for x in row] for row in rows]
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        tail = [x * inv % p for x in rows[r][c:]]
        for i in range(r + 1, nrows):
            a = rows[i][c]
            if a:
                rows[i][c:] = [(x - a * y) % p for x, y in zip(rows[i][c:], tail)]
        r += 1
        if r == nrows:
            break
    return r


def rank(m: QMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    ints = [_integer_row(row) for row in m.entries]
    full = min(m.rows, m.cols)
    if _rank_mod_p(ints, m.cols) == full:
        return full
    return len(_gauss_jordan(ints, m.cols))


def kernel_of_rref(reduced: QMatrix,
                   pivots: tuple[int, ...]) -> list[tuple[Fraction, ...]]:
    """Null-space basis off an RREF (pivot rows suffice): one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for free in range(reduced.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * reduced.cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced.entries[r][free]
        basis.append(tuple(vec))
    return basis


def kernel_basis(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space; empty iff full column rank."""
    return kernel_of_rref(*rref(m))


def null_space(m: QMatrix) -> QMatrix:
    """Canonical (RREF) basis of the right null space, from one elimination.

    With the columns reduced in reverse order, each free-variable vector,
    read back in the original order, leads with its 1 and is zero at the
    other free columns: listed last free column first, they are the RREF.
    """
    flipped = QMatrix(m.rows, m.cols, tuple(row[::-1] for row in m.entries))
    grid = tuple(vec[::-1] for vec in reversed(kernel_of_rref(*rref(flipped))))
    return QMatrix(len(grid), m.cols, grid)


def solve_square(m: QMatrix, rhs) -> tuple[Fraction, ...] | None:
    """Solve m x = rhs for square m; None if m is singular."""
    if m.rows != m.cols:
        raise ValueError("solve_square expects a square matrix")
    n = m.rows
    rows = [list(r) + [Fraction(rhs[i])] for i, r in enumerate(m.entries)]
    rows, pivots = _rref_rows(rows, n)
    if len(pivots) < n:
        return None
    return tuple(rows[i][n] for i in range(n))


def in_row_space(basis: QMatrix, pivots: tuple[int, ...], vector) -> bool:
    """Membership test against an RREF basis with known pivot columns."""
    return rank(from_rows([*basis.entries, vector], cols=basis.cols)) == len(pivots)


def unit_columns(basis: QMatrix, pivots: tuple[int, ...]) -> set[int]:
    """Columns j with e_j in the row space of an RREF basis: pivots whose row is e_j."""
    return {pc for r, pc in enumerate(pivots) if not any(basis.entries[r][pc + 1:])}
