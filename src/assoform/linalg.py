"""Exact linear algebra over the rationals, certified mod p.

Inside the library a matrix is a list of sparse integer rows {column:
entry}; ``QMatrix`` (immutable Fraction rows) is met only at the six public
functions that take one; ``integer_rows`` is the one conversion from it.  Every
result (RREF, kernel bases) is canonical: the RREF of a matrix is unique.

The one elimination is ``echelon_mod_p`` at a prime p from ``_primes``
(``_PRIME``, then each prime below it, all above 2^29).  It reduces rows in
the caller's order against the pivot rows kept so far, taking an entry mod
p only where it reads it, records the LU factors of the kept rows, and
stops at a target rank, so rows past it are never read.  Its certificate,
``lifted_kernel``, lifts a kernel vector w_f per free column f p-adically
on those factors (Dixon, Numer. Math. 40, 1982), recovers them by rational
reconstruction (von zur Gathen and Gerhard, Modern Computer Algebra, 5.10)
after lift steps 1, 2 and 3, then every 4th and the last, and keeps them
only if they kill every row over Z: then the rank mod p is the rank over Q.
Where it fails, ``certified_rank`` (a rank) and ``canonical_kernel`` (the
one kernel reader) go on to the next prime (Chen and Storjohann, ISSAC
2005).  ``canonical_kernel`` also needs each w_f zero past f: a kernel
basis with distinct last nonzero entries has them at the free columns of
the RREF over Q, so the pivots mod p are those over Q, and w_f / w_f[f] is
the RREF's kernel vector of f.  It returns w_f primitive, w_f[f] > 0: omega
is built on it in integers, and ``reduce_rows``, ``null_space``,
``kernel_basis`` and Wolfe's minor cycle divide by w_f[f].

Why the loop ends.  Let M have rank r over Q, pivot columns P in its RREF,
and r rows R with det M[R, P] != 0.  A prime not dividing it keeps the rank
of every prefix of the columns, so the echelon pivots on P, and its kept
rows span the row space.  By Cramer's rule their solutions x_f have
numerators and denominator at most H, the Hadamard bound of the kept rows,
so the lift, run until p^k > 2 H^2, recovers them, and w_f is the RREF's.
By Hadamard's inequality |det M[R, P]| is at most the product N of the row
norms of M, so at most log2(N) / 29 primes above 2^29 divide it; about
2.5 * 10^7 primes lie between 2^29 and 2^30.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

# The first modulus of the mod-p elimination: the largest prime below 2^30,
# so every residue is a single-digit CPython int.
_PRIME = (1 << 30) - 35


def _primes():
    """_PRIME, then each prime below it in turn (by trial division), down to 2^29."""
    yield _PRIME
    for q in range(_PRIME - 2, 1 << 29, -2):
        if all(q % f for f in range(3, math.isqrt(q) + 1, 2)):
            yield q


@dataclass(frozen=True)
class QMatrix:
    """Immutable rows x cols matrix of Fractions (entries[i][j]), the public format."""

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


def integer_vector(values) -> tuple[Fraction, list[int]]:
    """(s, v): v = s * values with coprime integer entries and s > 0 (s = 1 for zero)."""
    den = math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (den // x.denominator) for x in values]
    g = math.gcd(*ints) or 1
    return Fraction(den, g), [x // g for x in ints] if g > 1 else ints


def integer_rows(rows) -> list[dict[int, int]]:
    """The primitive integer multiple of each rational row, as {column: entry}."""
    return [{c: x for c, x in enumerate(integer_vector(row)[1]) if x} for row in rows]


def reduce_rows(rows, ncols: int) -> tuple[QMatrix, tuple[int, ...]]:
    """Canonical RREF basis (pivot rows only) and pivot columns of integer rows.

    The RREF row of pivot c is 1 at c, 0 at the other pivots and
    -w_f[c] / w_f[f] at each free column f (canonical_kernel's w_f).
    """
    kernel = dict(zip(*canonical_kernel(list(rows), ncols, ncols)))  # f -> w_f
    pivots = tuple(c for c in range(ncols) if c not in kernel)
    zero, one = Fraction(0), Fraction(1)
    grid = tuple(tuple(Fraction(-w[c], w[j]) if (w := kernel.get(j)) and w[c]
                       else one if j == c else zero for j in range(ncols)) for c in pivots)
    return QMatrix(len(pivots), ncols, grid), pivots


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; row space preserved."""
    basis, pivots = reduce_rows(integer_rows(m.entries), m.cols)
    zeros = ((Fraction(0),) * m.cols,) * (m.rows - len(pivots))
    return QMatrix(m.rows, m.cols, basis.entries + zeros), pivots


def row_space_basis(m: QMatrix) -> QMatrix:
    """Canonical basis of the row space: RREF with zero rows dropped."""
    return reduce_rows(integer_rows(m.entries), m.cols)[0]


def echelon_mod_p(rows, target: int, p: int):
    """Row echelon form over GF(p) of integer rows taken in the given order.

    rows is an iterable of sparse integer rows {column: entry}.  Each row is
    reduced against the pivot rows kept so far, in the order they were kept,
    taking an entry mod p where it is read (at a pivot, and once at the end);
    a row with an entry left is kept, pivoting in its first nonzero column.
    The echelon stops once target rows are kept, so later rows are not read.

    Returns (ids, cols, lower, upper): kept row k is input row ids[k] and
    pivots in column cols[k]; lower[k] holds row k of L as (j, L[k][j])
    pairs, the pivot (k, L[k][k]) last; upper[k] holds row k of U off its
    pivot as {column: entry}.  U[k] is 1 at cols[k] and 0 at cols[:k], and
    kept row k is sum_j L[k][j] U[j] mod p: on the pivot columns the kept
    rows factor as L U with U unit upper triangular.
    """
    where: dict[int, int] = {}  # pivot column -> its pivot row
    ids: list[int] = []
    cols: list[int] = []
    lower: list[list[tuple[int, int]]] = []
    upper: list[dict[int, int]] = []
    if target <= 0:
        return ids, cols, lower, upper
    for i, row in enumerate(rows):
        v = dict(row)  # entries are taken mod p where read
        # U[k] is 0 at cols[:k]: rows go smallest k first, each k once (no entry is deleted)
        heap = sorted(where[c] for c in v if c in where)  # a sorted list is a heap
        low = []
        while heap:
            k = heappop(heap)
            a = v.pop(cols[k]) % p
            if not a:
                continue
            low.append((k, a))
            for c, u in upper[k].items():
                if c in v:
                    v[c] -= a * u
                else:
                    v[c] = -a * u
                    if c in where:
                        heappush(heap, where[c])
        v = {c: x % p for c, x in v.items() if x % p}
        if not v:
            continue
        c = min(v)
        pivot = v.pop(c)
        inv = pow(pivot, -1, p)
        where[c] = len(cols)
        low.append((len(cols), pivot))
        ids.append(i)
        cols.append(c)
        lower.append(low)
        upper.append({c: x * inv % p for c, x in v.items()})
        if len(cols) == target:
            break
    return ids, cols, lower, upper


def certified_rank(rows, ncols: int, bound: int) -> int:
    """Rank over Q of integer rows {column: entry}, given a proven upper bound.

    The rank mod p of an integer matrix never exceeds its rank over Q (a
    nonzero minor mod p is a nonzero integer minor), so a rank mod p equal
    to bound is exact: the echelon stops there, and later rows are never
    read.  A shorter rank, having read every row, is exact if
    ``lifted_kernel`` certifies it, else the same rows go to the next prime.
    The caller proves bound.
    """
    read: list[dict[int, int]] = []  # the rows, as the first echelon reads them
    rows = (read.append(row) or row for row in rows)
    for p in _primes():
        echelon = echelon_mod_p(rows, bound, p)
        if len(echelon[1]) == bound or lifted_kernel(read, ncols, echelon, p) is not None:
            return len(echelon[1])
        rows = read


def rank(m: QMatrix) -> int:
    """Rank over Q, certified against the full rank min(rows, cols)."""
    return certified_rank(integer_rows(m.entries), m.cols, min(m.rows, m.cols))


def _reconstruct(vectors: list[list[int]], modulus: int) -> list[list[int]] | None:
    """den * x as integer vectors, for the rational vectors x = vectors mod modulus; or None.

    Each entry, times the common denominator den so far, is reconstructed by
    the half extended Euclid with numerator and denominator at most sqrt(modulus / 2).
    """
    bound = math.isqrt(modulus // 2)
    den = 1
    for vec in vectors:
        for u in vec:
            r0, r1, s0, s1 = modulus, den * u % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            den *= abs(s1)
            if not den or den > bound:
                return None
    return [[v - modulus if 2 * v > modulus else v for v in (den * u % modulus for u in vec)]
            for vec in vectors]


def lifted_kernel(rows: list[dict[int, int]], ncols: int, echelon,
                  p: int) -> list[list[int]] | None:
    """A basis W of the kernel of integer rows, lifted from their echelon mod p; or None.

    With B the kept rows R at the pivot columns, x_f = B^{-1}(-M[R, f]) is
    lifted on the LU factors for each free column f, and all are
    reconstructed with one denominator after steps 1, 2 and 3, then every
    4 steps and the last, so a system with small solutions stops at the
    first step that certifies it.  w_f is x_f at the pivot columns, 1 at f
    and 0 at the other free columns, times it.  W (by f) is returned only
    if M w_f = 0 over Z on every row: independent
    kernel vectors, they cap the rank over Q at the rank mod p, its floor.
    Reconstruction holds once p^k > 2 H^2, H the Hadamard bound of R, which
    bounds the numerators and denominator (Cramer); past that, None.
    """
    ids, cols, lower, upper = echelon
    where = {c: k for k, c in enumerate(cols)}
    free = [c for c in range(ncols) if c not in where]
    forward = [(low[:-1], pow(low[-1][1], -1, p)) for low in lower]  # L: off-diagonal, 1/diagonal
    back = [[(where[c], u) for c, u in up.items() if c in where] for up in upper]
    pivotal = [[(where[c], a) for c, a in row.items() if c in where] for row in rows]
    residuals = [[-rows[i].get(f, 0) for i in ids] for f in free]
    bound = 2 * math.prod(sum(a * a for a in rows[i].values()) for i in ids)  # 2 H^2
    steps = bound.bit_length() // 29 + 1  # p > 2^29, so p^steps > bound
    lifted, modulus = [[0] * len(cols) + [1] for _ in free], 1  # x_f by pivot, then 1 at f
    for step in range(1, steps + 1):
        for residual, lift in zip(residuals, lifted):
            y: list[int] = []  # B x = residual mod p: forward, then back substitution
            for (low, inv), b in zip(forward, residual):
                y.append((b - sum(a * y[j] for j, a in low)) * inv % p)
            x = [0] * len(cols)
            for k in reversed(range(len(cols))):
                x[k] = (y[k] - sum(u * x[j] for j, u in back[k])) % p
                lift[k] += modulus * x[k]
            residual[:] = [(b - sum(a * x[j] for j, a in pivotal[i])) // p
                           for b, i in zip(residual, ids)]
        modulus *= p
        kernel = (_reconstruct(lifted, modulus) if step < 4 or step % 4 == 0 or step == steps
                  else None)
        if kernel is not None and not any(sum(a * w[k] for k, a in at) + w[-1] * row.get(f, 0)
                                          for at, row in zip(pivotal, rows)
                                          for w, f in zip(kernel, free)):
            return [[w[where[c]] if c in where else w[-1] * (c == f) for c in range(ncols)]
                    for w, f in zip(kernel, free)]
    return None


def kernel_basis(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, 1 at each free column; empty iff full column rank."""
    free, kernel = canonical_kernel(integer_rows(m.entries), m.cols, m.cols)
    zero = Fraction(0)
    return [tuple(Fraction(x, w[f]) if x else zero for x in w) for f, w in zip(free, kernel)]


def canonical_kernel(rows: list[dict[int, int]], ncols: int,
                     target: int) -> tuple[list[int], list[list[int]]]:
    """The free columns over Q, and per free column f the primitive integer w_f.

    w_f[f] > 0 and w_f is zero past f: w_f / w_f[f] is the RREF's kernel
    vector of f.  Each prime runs the echelon up to target (at least the rank
    over Q) and its lift; the first whose W is certified answers.
    """
    for p in _primes():
        echelon = echelon_mod_p(rows, target, p)
        kernel = lifted_kernel(rows, ncols, echelon, p)
        free = sorted(set(range(ncols)).difference(echelon[1]))
        if kernel is not None and not any(any(w[f + 1:]) for w, f in zip(kernel, free)):
            return free, [[x // g for x in w] for w in kernel for g in (math.gcd(*w),)]


def null_space(rows, ncols: int) -> QMatrix:
    """Canonical (RREF) basis of the right null space of integer rows.

    With the columns reversed, the RREF's kernel vectors, read back and
    listed last free column first, are the RREF.
    """
    flipped = [{ncols - 1 - c: x for c, x in row.items()} for row in rows]
    free, kernel = canonical_kernel(flipped, ncols, ncols)
    zero = Fraction(0)
    grid = tuple(tuple(Fraction(x, w[f]) if x else zero for x in reversed(w))
                 for f, w in zip(reversed(free), reversed(kernel)))
    return QMatrix(len(grid), ncols, grid)


def solve_square(m: QMatrix, rhs) -> tuple[Fraction, ...] | None:
    """Solve m x = rhs for square m; None if m is singular."""
    if m.rows != m.cols:
        raise ValueError("solve_square expects a square matrix")
    n = m.rows  # m is nonsingular exactly when the augmented rows pivot at 0..n-1
    reduced, pivots = reduce_rows(integer_rows(row + (b,) for row, b in zip(m.entries, rhs)),
                                  n + 1)
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n] for row in reduced.entries)


def in_row_space(basis: QMatrix, pivots: tuple[int, ...], vector) -> bool:
    """Membership test against an RREF basis with known pivot columns."""
    return certified_rank(integer_rows([*basis.entries, vector]), basis.cols,
                          min(basis.rows + 1, basis.cols)) == len(pivots)


def unit_columns(basis: QMatrix, pivots: tuple[int, ...]) -> set[int]:
    """Columns j with e_j in the row space of an RREF basis: pivots whose row is e_j."""
    return {pc for r, pc in enumerate(pivots) if not any(basis.entries[r][pc + 1:])}
