"""Exact dense linear algebra over the rationals.

Matrices store ``fractions.Fraction`` entries row-major and are immutable
(integer matrices built in the library may hold ints, read as Fractions).
Every result (RREF, kernel bases) is canonical: the RREF of a matrix is
unique, whichever pivot rows the elimination picks.

Every exact elimination runs on one integer Gauss-Jordan core: each row is
scaled to a primitive integer row, row operations stay in the integers, and
the canonical Fraction RREF is formed once at the end, so the bases are
those of elimination over Fractions.

The one elimination modulo the prime ``_PRIME`` is the LU ``_lu_mod_p``.
The rank mod p of an integer matrix never exceeds its rank over Q (a
nonzero minor mod p is a nonzero integer minor), so ``rank`` trusts a rank
mod p equal to min(rows, cols) and runs the exact core only on a short one.
``corank_one_kernel`` reuses the LU to lift a kernel vector p-adically
(Dixon, Numer. Math. 40, 1982), recovers it by rational reconstruction
(von zur Gathen and Gerhard, Modern Computer Algebra, 5.10), and returns
it only if it kills every row exactly over Z.

Each subspace is read off one elimination: ``kernel_of_rref`` reads a
kernel off an RREF at hand, ``null_space`` reduces once for the canonical
kernel basis, and ``unit_columns`` reads unit-vector membership off an RREF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

# Modulus of the mod-p elimination: the largest prime below 2^30, so every
# residue is a single-digit CPython int.
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


def _lu_mod_p(int_rows: list[list[int]], ncols: int):
    """LU factors of an integer matrix over GF(_PRIME), by partial pivoting.

    Returns (ids, cols, factors): pivot row k is input row ids[k] and pivots
    in column cols[k].  Factor row k holds its multipliers in columns cols[:k]
    (the eliminated entries, left in place), its pivot's inverse in cols[k],
    and its reduced entries divided by the pivot right of it.
    """
    p = _PRIME
    rows = [[x % p for x in row] for row in int_rows]
    ids = list(range(len(rows)))
    nrows = len(rows)
    cols: list[int] = []
    for c in range(ncols):
        r = len(cols)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        ids[r], ids[pivot] = ids[pivot], ids[r]
        row = rows[r]
        inv = pow(row[c], -1, p)
        tail = [x * inv % p for x in row[c + 1:]]
        row[c], row[c + 1:] = inv, tail
        for i in range(r + 1, nrows):
            a = rows[i][c]
            if a:
                rows[i][c + 1:] = [(x - a * y) % p for x, y in zip(rows[i][c + 1:], tail)]
        cols.append(c)
    return ids[:len(cols)], cols, rows[:len(cols)]


def rank(m: QMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    ints = [_integer_row(row) for row in m.entries]
    full = min(m.rows, m.cols)
    if len(_lu_mod_p(ints, m.cols)[1]) == full:
        return full
    return len(_gauss_jordan(ints, m.cols))


def _reconstruct(residues: list[int], modulus: int) -> list[int] | None:
    """den * x as integers, for the rational vector x = residues mod modulus; or None.

    Each entry, scaled by the denominator found so far, is reconstructed by
    the half extended Euclid with numerator and denominator at most
    sqrt(modulus / 2); past the first few entries it is an integer.
    """
    bound = math.isqrt(modulus // 2)
    den = 1
    for u in residues:
        r0, r1, s0, s1 = modulus, den * u % modulus, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        den *= abs(s1)
        if not den or den > bound:
            return None
    return [v - modulus if 2 * v > modulus else v for v in (den * u % modulus for u in residues)]


def corank_one_kernel(m: QMatrix) -> tuple[int, ...] | None:
    """A primitive integer vector spanning the kernel of m, certified; or None.

    Runs only when the rank of m mod p is cols - 1.  With B the pivot rows R
    at the pivot columns and f the free column, x = B^{-1}(-m[R, f]) is
    lifted p-adically, one LU solve per step, and reconstructed every 4
    steps.  w (x with x_f = 1, times the common denominator) is returned
    only when w_f != 0 and m w = 0 over Z on every row: then the rank over Q
    is cols - 1 and ker m = <w>.  By Cramer's rule the Hadamard bound H of
    the rows R bounds x's numerators and denominator, so reconstruction
    succeeds once p^k > 2 H^2; past that step the answer is None.
    """
    p, ints = _PRIME, [_integer_row(row) for row in m.entries]
    ids, cols, factors = _lu_mod_p(ints, m.cols)
    if len(cols) != m.cols - 1:
        return None
    free = min(set(range(m.cols)).difference(cols))
    lower = [[row[c] for c in cols[:k]] for k, row in enumerate(factors)]
    upper = [[row[c] for c in reversed(cols[k + 1:])] for k, row in enumerate(factors)]
    inverses = [row[c] for c, row in zip(cols, factors)]
    block = [[(j, a) for j, a in enumerate(ints[i][c] for c in cols) if a] for i in ids]
    residual = [-ints[i][free] for i in ids]
    bound = 2 * math.prod(sum(a * a for a in ints[i]) for i in ids)  # 2 H^2
    steps = bound.bit_length() // 29 + 1  # p > 2^29, so p^steps > bound
    lifted, modulus = [0] * len(cols), 1
    for step in range(1, steps + 1):
        y: list[int] = []  # B x = residual mod p: forward, then back substitution
        for low, inv, b in zip(lower, inverses, residual):
            y.append((b - sum(map(mul, low, y))) * inv % p)
        x: list[int] = []  # from the last unknown back
        for up, yk in zip(reversed(upper), reversed(y)):
            x.append((yk - sum(map(mul, up, x))) % p)
        x.reverse()
        lifted = [t + modulus * xk for t, xk in zip(lifted, x)]
        modulus *= p
        residual = [(b - sum(a * x[j] for j, a in row)) // p
                    for b, row in zip(residual, block)]
        if step % 4 and step < steps:
            continue
        at = dict(zip(cols, lifted))
        w = _reconstruct([at.get(c, 1) for c in range(m.cols)], modulus)
        if w is not None and w[free] and not any(sum(map(mul, row, w)) for row in ints):
            g = math.gcd(*w)
            return tuple(v // g for v in w)
    return None


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
