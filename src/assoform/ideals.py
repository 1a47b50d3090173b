"""Graded pieces of ideals generated in one degree, and the tests built on them.

Everything is degree-by-degree exact linear algebra in the monomial basis
(descending grevlex column order) on integer product rows, built from each
generator scaled once to a primitive integer form (the same ideal): ideal
pieces are canonical RREF row spaces, Hilbert functions are codimensions,
regular sequences are certified by vanishing of the quotient one degree
past the socle, and Koszul differentials are assembled as explicit graded
matrices.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .linalg import (QMatrix, corank_one_kernel, from_rows, in_row_space, kernel_of_rref,
                     rank, rref, unit_columns)
from .poly import (ZERO, Mono, Polynomial, Space, dim_degree, grevlex_key,
                   integer_terms, monomials_of_degree)

DEGREE_CAP = 24


class DegreeCapError(ValueError):
    """Raised when n(d-1) exceeds the supported desk-scale bound."""


def coeff_vector(f: Polynomial, basis: tuple[Mono, ...]) -> list[Fraction]:
    return [f.terms.get(m, ZERO) for m in basis]


def vectors_to_polynomials(m: QMatrix, basis: tuple[Mono, ...], nvars: int,
                           space: Space) -> list[Polynomial]:
    return [Polynomial(nvars, space, dict(zip(basis, row))) for row in m.entries]


class GradedIdeal:
    """Ideal generated by homogeneous degree-d forms, with cached graded pieces.

    The constructor is the one place where input forms are validated; every
    operation that takes forms builds (or is handed) one ideal and computes
    each graded piece and rank on it at most once.
    """

    def __init__(self, nvars: int, d: int, generators):
        gens = tuple(generators)
        for g in gens:
            if g.nvars != nvars or g.space is not Space.PRIMAL:
                raise ValueError("generators must be primal forms in n variables")
            if g.is_zero() or not g.is_homogeneous(d):
                raise ValueError(f"generators must be nonzero homogeneous of degree {d}")
        if d < 1:
            raise ValueError("generator degree must be positive")
        self.nu = nvars * (d - 1)  # the socle degree of a balanced complete intersection
        if self.nu > DEGREE_CAP:
            raise DegreeCapError(f"socle degree {nvars}*({d}-1) = {self.nu} "
                                 f"exceeds the supported bound {DEGREE_CAP}")
        self.nvars = nvars
        self.d = d
        self.generators = gens
        self._integer_forms = tuple(integer_terms(g.terms)[1] for g in gens)
        self._piece_cache: dict[int, tuple[QMatrix, tuple[int, ...]]] = {}
        self._rank_cache: dict[int, int] = {}
        self._socle_kernel: list[tuple] | None = None

    @classmethod
    def of(cls, forms) -> GradedIdeal:
        """The ideal of a non-empty list of forms, reading n and d off the first.

        An ideal passed in is returned as it is, with its caches.
        """
        if isinstance(forms, cls):
            return forms
        gens = tuple(forms)
        if not gens:
            raise ValueError("empty form list")
        first = gens[0]
        return cls(first.nvars, 0 if first.is_zero() else first.degree(), gens)

    def piece_with_pivots(self, k: int) -> tuple[QMatrix, tuple[int, ...]]:
        """Canonical RREF basis of I_k and its pivot columns, reduced once."""
        cached = self._piece_cache.get(k)
        if cached is None:
            reduced, pivots = rref(self.product_rows(k))
            basis = QMatrix(len(pivots), reduced.cols, reduced.entries[:len(pivots)])
            cached = (basis, pivots)
            self._piece_cache[k] = cached
            self._rank_cache[k] = len(pivots)
        return cached

    def product_rows(self, k: int) -> QMatrix:
        """Integer rows spanning I_k: every monomial multiple m*g landing in degree k."""
        target = monomials_of_degree(self.nvars, k)
        column = {m: j for j, m in enumerate(target)}
        rows = []
        for mono in monomials_of_degree(self.nvars, k - self.d):  # none for k < d
            for form in self._integer_forms:
                row = [0] * len(target)
                for gm, c in form.items():
                    row[column[tuple(a + b for a, b in zip(mono, gm))]] = c
                rows.append(tuple(row))
        return QMatrix(len(rows), len(target), tuple(rows))

    def socle_kernel(self) -> list[tuple]:
        """Kernel basis of the product rows of I_nu, once: certified mod p, else exact."""
        if self._socle_kernel is None:
            w = corank_one_kernel(self.product_rows(self.nu))
            self._socle_kernel = [w] if w else kernel_of_rref(*self.piece_with_pivots(self.nu))
        return self._socle_kernel

    def graded_piece(self, k: int) -> QMatrix:
        """Canonical RREF basis of I_k inside S_k; empty for k < d."""
        return self.piece_with_pivots(k)[0]

    def dim_piece(self, k: int) -> int:
        """dim I_k, the rank of the product rows when no basis is cached yet."""
        if k not in self._rank_cache:
            self._rank_cache[k] = rank(self.product_rows(k))
        return self._rank_cache[k]

    def contains(self, f: Polynomial) -> bool:
        """Membership of a homogeneous polynomial in the ideal."""
        if f.is_zero():
            return True
        if not f.is_homogeneous():
            raise ValueError("membership test expects a homogeneous polynomial")
        k = f.degree()
        basis, pivots = self.piece_with_pivots(k)
        vec = coeff_vector(f, monomials_of_degree(self.nvars, k))
        return in_row_space(basis, pivots, vec)


def hilbert_function(ideal: GradedIdeal, bound: int) -> tuple[int, ...]:
    """dim (S/I)_k for k = 0..bound."""
    return tuple(dim_degree(ideal.nvars, k) - ideal.dim_piece(k)
                 for k in range(bound + 1))


def is_regular_sequence(gs) -> bool:
    """Whether n degree-d forms in n variables (or their ideal) form a regular sequence.

    Certified by dim (S/I)_{nu+1} = 0: a standard graded quotient that
    vanishes in one degree vanishes above it, and for n forms in n
    variables Artinian is equivalent to being a regular sequence.  The
    rank is cached with the ideal, so repeated calls cost nothing.
    Raises ValueError unless there are exactly n forms.
    """
    ideal = GradedIdeal.of(gs)
    n, m = ideal.nvars, len(ideal.generators)
    if m != n:
        raise ValueError(f"need exactly {n} forms in {n} variables, got {m}")
    return ideal.dim_piece(ideal.nu + 1) == dim_degree(n, ideal.nu + 1)


def min_nonideal_monomial(ideal: GradedIdeal, k: int,
                          restrict: tuple[int, int] | None = None) -> Mono | None:
    """Grevlex-smallest degree-k monomial outside I_k, or None.

    With restrict=(a, N), only monomials of total degree >= N in the last
    n-a variables are considered.  Membership is read off the RREF of I_k.
    """
    a, power = restrict if restrict is not None else (ideal.nvars, 0)  # (n, 0) keeps all
    if not 1 <= a <= ideal.nvars or power < 0:
        raise ValueError("restriction must satisfy 1 <= a <= n and N >= 0")
    target = monomials_of_degree(ideal.nvars, k)
    members = {target[j] for j in unit_columns(*ideal.piece_with_pivots(k))}
    return min((m for m in target if m not in members and sum(m[a:]) >= power),
               key=grevlex_key, default=None)


def _wedges(m: int, j: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(m), j))


def koszul_matrices(gs, j: int, k: int) -> QMatrix:
    """Matrix of the Koszul differential d_j restricted to graded degree k.

    Source basis: (monomial of degree k - j*d) x (e_{i_1} ^ ... ^ e_{i_j});
    target basis: the same with j-1 wedge factors.  Columns index the
    source.  d_j sends e_I to the signed sum of g_{i_r} times e_{I minus i_r}.
    """
    ideal = GradedIdeal.of(gs)
    n, d, gs = ideal.nvars, ideal.d, ideal.generators
    m = len(gs)
    if not 1 <= j <= m:
        raise ValueError(f"homological index {j} out of range 1..{m}")
    src_monos = monomials_of_degree(n, k - j * d)
    tgt_monos = monomials_of_degree(n, k - (j - 1) * d)
    src_wedges = _wedges(m, j)
    tgt_wedges = _wedges(m, j - 1)
    tgt_index = {(w, mono): len(tgt_monos) * wi + mi
                 for wi, w in enumerate(tgt_wedges)
                 for mi, mono in enumerate(tgt_monos)}
    ncols = len(src_wedges) * len(src_monos)
    nrows = len(tgt_wedges) * len(tgt_monos)
    grid = [[ZERO] * ncols for _ in range(nrows)]
    col = 0
    for wedge in src_wedges:
        for mono in src_monos:
            for r, gen_index in enumerate(wedge):
                sign = 1 if r % 2 == 0 else -1
                rest = wedge[:r] + wedge[r + 1:]
                for gm, c in gs[gen_index].terms.items():
                    prod = tuple(a + b for a, b in zip(mono, gm))
                    grid[tgt_index[(rest, prod)]][col] += sign * c
            col += 1
    return QMatrix(nrows, ncols, tuple(tuple(row) for row in grid))


def koszul_exactness_check(gs, k_max: int) -> bool:
    """Exactness of the Koszul complex away from homological degree 0.

    Checks rank d_j + rank d_{j+1} = dim K_j in every graded degree k <= k_max
    and every 1 <= j <= m; true for regular sequences, where the complex is
    a minimal free resolution.  No d_j is built below degree j*d, where K_j = 0.
    """
    ideal = GradedIdeal.of(gs)
    n, d, m = ideal.nvars, ideal.d, len(ideal.generators)
    ranks: dict[tuple[int, int], int] = {}

    def rank_dj(j: int, k: int) -> int:
        if j > m or j * d > k:
            return 0
        key = (j, k)
        if key not in ranks:
            ranks[key] = rank(koszul_matrices(ideal, j, k))
        return ranks[key]

    for k in range(k_max + 1):
        for j in range(1, min(m, k // d) + 1):
            dim_kj = math.comb(m, j) * dim_degree(n, k - j * d)
            if rank_dj(j, k) + rank_dj(j + 1, k) != dim_kj:
                return False
    return True


def intersect_with_coordinates(basis: QMatrix, keep_cols) -> QMatrix:
    """Canonical basis of (row space of basis) cut to a coordinate subspace.

    keep_cols flags, per column, whether the corresponding coordinate may be
    nonzero; the result is the subspace of row-space vectors supported on
    the kept columns, again in RREF.
    """
    # one RREF with the dropped columns first: the rows pivoting past them
    # vanish there and span the intersection, already reduced
    order = sorted(range(basis.cols), key=lambda c: bool(keep_cols[c]))
    reduced, pivots = rref(from_rows([[row[c] for c in order] for row in basis.entries],
                                     cols=basis.cols))
    back = sorted(range(basis.cols), key=order.__getitem__)  # the inverse permutation
    ndrop = sum(not keep for keep in keep_cols)
    grid = tuple(tuple(row[j] for j in back)
                 for row, pc in zip(reduced.entries, pivots) if pc >= ndrop)
    return QMatrix(len(grid), basis.cols, grid)
