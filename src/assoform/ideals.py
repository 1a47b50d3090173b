"""Graded pieces of ideals generated in one degree, and the tests built on them.

Everything is degree-by-degree linear algebra in the monomial basis
(descending grevlex column order) on integer product rows, built from each
generator scaled once to a primitive integer form (the same ideal): ideal
pieces are canonical RREF row spaces, Hilbert functions are codimensions,
regular sequences are read off a full I_{nu+1}, ranked or recorded by
omega (record_regular), and Koszul differentials are assembled as graded matrices.
Monomials multiply by adding packed codes (Kronecker substitution,
``poly.mono_code``), which ``_koszul_basis`` keeps beside each basis.
The RREF of a piece is built, uncached, only for the public ``graded_piece``,
``contains`` and ``min_nonideal_monomial``; no command builds one.

Every rank is a ``linalg.certified_rank`` of integer rows, given a proven
upper bound of the rank over Q, with the rows taken Macaulay-first: for
each monomial x^a of degree k, the row x^(a - d e_i) g_i with i the first
index such that a_i >= d comes first (Macaulay's square matrix; F. S.
Macaulay, Some formulae in elimination, 1902), then the other rows.  For dense forms
these rows are nearly triangular, so the echelon has little fill-in and
stops after few of the others.  The square alone does not suffice: for
x2^2, x1^2, x3^2 it is short while I_{nu+1} is full.  The bounds:

- dim I_k with m <= n generators: dim S_k - c_k, c_k the coefficient of
  t^k in (1 - t^d)^m / (1 - t)^n, attained by a regular sequence
  (GradedIdeal.dim_piece).  With n generators this bounds regularity (at
  nu + 1, where c = 0), Hilbert functions and omega's echelon at nu (c = 1).
  With m > n generators the bound is the full rank: the generic Hilbert
  function of m > n forms is Froberg's open conjecture (Math. Scand. 56,
  1985).  A shorter rank is exact when its kernel, lifted off the echelon,
  is checked over Z.
- Koszul exactness.  No Koszul homology lives below the lowest degree of
  H_1, so the complex is exact up to degree k exactly when each dim I_k
  reaches the same dim S_k - c_k, for any m (koszul_exactness_check).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .linalg import (QMatrix, canonical_kernel, certified_rank, in_row_space, reduce_rows,
                     unit_columns)
from .poly import (ZERO, Mono, Polynomial, Space, _integer_jacobian_det, dim_degree,
                   grevlex_key, integer_terms, mono_code, monomials_of_degree)

DEGREE_CAP = 24


class DegreeCapError(ValueError):
    """Raised when n(d-1) exceeds the supported desk-scale bound."""


def coeff_vector(f: Polynomial, basis: tuple[Mono, ...]) -> list[Fraction]:
    return [f.terms.get(m, ZERO) for m in basis]


def vectors_to_polynomials(m: QMatrix, basis: tuple[Mono, ...], nvars: int,
                           space: Space) -> list[Polynomial]:
    return [Polynomial(nvars, space, dict(zip(basis, row))) for row in m.entries]


def _koszul_bound(n: int, d: int, m: int, k: int) -> int:
    """dim S_k - c_k, c_k the coefficient of t^k in (1 - t^d)^m / (1 - t)^n."""
    return sum((-1) ** (j + 1) * math.comb(m, j) * dim_degree(n, k - j * d)
               for j in range(1, m + 1))


class GradedIdeal:
    """Ideal generated by homogeneous degree-d forms, with cached ranks.

    The constructor is the one place where input forms are validated; every
    operation that takes forms builds (or is handed) one ideal and computes
    each rank on it at most once.
    """

    def __init__(self, nvars: int, d: int, generators):
        gens = tuple(generators)
        for i, g in enumerate(gens, 1):
            if g.nvars != nvars or g.space is not Space.PRIMAL:
                raise ValueError("generators must be primal forms in n variables")
            if g.is_zero():
                raise ValueError(f"generator {i} is zero; generators must be nonzero forms")
            if not g.is_homogeneous(d):
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
        scaled = [integer_terms(g.terms) for g in gens]  # (s_i, s_i g_i)
        self._scales = tuple(s for s, _ in scaled)
        self._integer_forms = tuple(form for _, form in scaled)
        self._rank_cache: dict[int, int] = {}

    @classmethod
    def of(cls, forms) -> GradedIdeal:
        """The ideal of a non-empty list of forms, reading n and d off the first.

        An ideal passed in is returned as it is, with its cached ranks.
        """
        if isinstance(forms, cls):
            return forms
        gens = tuple(forms)
        if not gens:
            raise ValueError("empty form list")
        first = gens[0]
        return cls(first.nvars, 0 if first.is_zero() else first.degree(), gens)

    def piece_with_pivots(self, k: int) -> tuple[QMatrix, tuple[int, ...]]:
        """Canonical RREF basis of I_k and its pivot columns."""
        return reduce_rows(self._macaulay_rows(k), dim_degree(self.nvars, k))

    def _macaulay_rows(self, k: int):
        """The product rows of I_k as {column: coefficient}, Macaulay's first, made as read."""
        order = _macaulay_order(self.nvars, self.d, len(self.generators), k)
        return _koszul_images(self._integer_forms, self.nvars, self.d, 1, k, order)

    def _n_forms(self) -> int:
        """n, for n generators; regularity and omega are defined only for n forms."""
        n, m = self.nvars, len(self.generators)
        if m != n:
            raise ValueError(f"need exactly {n} forms in {n} variables, got {m}")
        return n

    def integer_jacobian(self) -> tuple[dict[Mono, int], Fraction]:
        """(D, S), det Jac of the generators = D / S: D of their integer forms, S = prod s_i."""
        return _integer_jacobian_det(self._integer_forms, self._n_forms()), math.prod(self._scales)

    def socle_kernel(self) -> list[list[int]]:
        """canonical_kernel's w_f of I_nu's rows, n forms: rank I_nu <= dim S_nu - 1."""
        ncols = dim_degree(self._n_forms(), self.nu)
        return canonical_kernel(list(self._macaulay_rows(self.nu)), ncols, ncols - 1)[1]

    def record_regular(self) -> None:
        """Record rank I_{nu+1} = dim S_{nu+1}, for n forms proven regular by omega."""
        self._rank_cache[self.nu + 1] = dim_degree(self.nvars, self.nu + 1)

    def graded_piece(self, k: int) -> QMatrix:
        """Canonical RREF basis of I_k inside S_k; empty for k < d."""
        return self.piece_with_pivots(k)[0]

    def dim_piece(self, k: int) -> int:
        """dim I_k, read off the bound below or a certified rank of the product rows.

        With m <= n generators the bound is dim S_k - c_k (_koszul_bound):
        specialising can only lower a rank, and m <= n generic forms are a
        regular sequence.  Once I_{nu+1} is full for n forms (is_regular_sequence,
        record_regular), so are these: their Koszul complex resolves S/I (Eisenbud,
        Commutative Algebra, Cor. 17.5), and the bound is dim I_k, with no rows
        built.  With m > n it is the full rank.
        """
        if k not in self._rank_cache:
            n, d, m = self.nvars, self.d, len(self.generators)
            if m <= n:
                bound = _koszul_bound(n, d, m, k)
            else:
                bound = min(m * dim_degree(n, k - d), dim_degree(n, k))
            if m != n or self._rank_cache.get(self.nu + 1) != dim_degree(n, self.nu + 1):
                bound = certified_rank(self._macaulay_rows(k), dim_degree(n, k), bound)
            self._rank_cache[k] = bound
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
    """dim (S/I)_k for k = 0..bound; I_{nu+1} first, whose full rank decides n forms."""
    if bound > ideal.nu:
        ideal.dim_piece(ideal.nu + 1)
    return tuple(dim_degree(ideal.nvars, k) - ideal.dim_piece(k)
                 for k in range(bound + 1))


def is_regular_sequence(gs) -> bool:
    """Whether n degree-d forms in n variables (or their ideal) form a regular sequence.

    Certified by dim (S/I)_{nu+1} = 0: a standard graded quotient that
    vanishes in one degree vanishes above it, and for n forms in n
    variables Artinian is equivalent to being a regular sequence.  The
    rank is cached with the ideal, so repeated calls cost nothing.  It was
    measured faster than omega's lifted kernel, or omega mod p on det Jac.
    Raises ValueError unless there are exactly n forms.
    """
    ideal = GradedIdeal.of(gs)
    return dim_degree(ideal._n_forms(), ideal.nu + 1) == ideal.dim_piece(ideal.nu + 1)


def min_nonideal_monomial(ideal: GradedIdeal, k: int) -> Mono | None:
    """Grevlex-smallest degree-k monomial outside I_k, or None, read off the RREF of I_k."""
    target = monomials_of_degree(ideal.nvars, k)
    members = {target[j] for j in unit_columns(*ideal.piece_with_pivots(k))}
    return min((m for m in target if m not in members), key=grevlex_key, default=None)


@lru_cache(maxsize=None)
def _koszul_basis(n: int, m: int, j: int, e: int, bits: int):
    """The basis e_W x^b of K_j with deg x^b = e, for m generators in n variables.

    Wedge-major: e_W x^b is at wedge index * dim S_e + monomial index.
    Returns the wedges W, the monomials x^b, their codes (poly.mono_code at
    bits) and the index (wedge index << n * bits) + code -> position.
    """
    wedges, monos = tuple(itertools.combinations(range(m), j)), monomials_of_degree(n, e)
    codes = tuple(mono_code(b, bits) for b in monos)
    return wedges, monos, codes, {(wi << n * bits) + c: len(monos) * wi + bi
                                  for wi in range(len(wedges)) for bi, c in enumerate(codes)}


@lru_cache(maxsize=None)
def _macaulay_order(n: int, d: int, m: int, k: int) -> tuple[int, ...]:
    """The product rows of I_k (see _koszul_images), Macaulay's square first.

    Row x^b g_i is source element i * dim S_(k-d) + (index of x^b).  For
    each monomial x^a of degree k in order, with i the first index such that
    a_i >= d: the row x^(a - d e_i) g_i, which holds the x_i^d coefficient
    of g_i at x^a; then the others, x^b g_1 .. x^b g_m for each x^b in turn.
    """
    bits = k.bit_length()
    _, _, _, src_index = _koszul_basis(n, m, 1, k - d, bits)
    _, monos, codes, _ = _koszul_basis(n, m, 0, k, bits)
    first = []
    for a, code in zip(monos, codes):
        i = next((i for i in range(min(m, n)) if a[i] >= d), None)
        if i is not None:
            first.append(src_index[(i << n * bits) + code - (d << bits * i)])
    size, square = dim_degree(n, k - d), set(first)
    others = (i * size + b for b in range(size) for i in range(m))
    return tuple(first) + tuple(s for s in others if s not in square)


def _koszul_images(forms, n: int, d: int, j: int, k: int, order):
    """The image of each source basis element s in order under d_j in degree k.

    forms are the generators' term dicts; each image is {target row:
    coefficient}.  The source basis is that of K_j in degree k, the target
    basis that of K_{j-1} (see _koszul_basis).  d_j sends e_I to the signed
    sum of g_{i_r} times e_{I minus i_r}.  For j = 1 the images are the
    product rows x^b g_i of I_k, with the monomials of S_k as columns.
    Monomials are mono_codes of k.bit_length() bits a field: no exponent in degree k fills one.
    """
    bits = k.bit_length()
    src_wedges, _, src_codes, _ = _koszul_basis(n, len(forms), j, k - j * d, bits)
    tgt_wedges, _, _, tgt_index = _koszul_basis(n, len(forms), j - 1, k - (j - 1) * d, bits)
    rest_keys = {w: wi << n * bits for wi, w in enumerate(tgt_wedges)}
    coded = [[(mono_code(gm, bits), c) for gm, c in form.items()] for form in forms]
    for s in order:
        wedge, code = src_wedges[s // len(src_codes)], src_codes[s % len(src_codes)]
        image = {}
        for r, gen_index in enumerate(wedge):
            sign = -1 if r % 2 else 1
            key = rest_keys[wedge[:r] + wedge[r + 1:]] + code
            for gc, c in coded[gen_index]:
                image[tgt_index[key + gc]] = sign * c
        yield image


def koszul_matrices(gs, j: int, k: int) -> QMatrix:
    """Matrix of the Koszul differential d_j restricted to graded degree k.

    Columns index the source basis, rows the target basis (see
    _koszul_images).
    """
    ideal = GradedIdeal.of(gs)
    n, d, m = ideal.nvars, ideal.d, len(ideal.generators)
    if not 1 <= j <= m:
        raise ValueError(f"homological index {j} out of range 1..{m}")
    ncols = math.comb(m, j) * dim_degree(n, k - j * d)
    nrows = math.comb(m, j - 1) * dim_degree(n, k - (j - 1) * d)
    grid = [[ZERO] * ncols for _ in range(nrows)]
    images = _koszul_images([g.terms for g in ideal.generators], n, d, j, k, range(ncols))
    for col, image in enumerate(images):
        for row, c in image.items():
            grid[row][col] = c
    return QMatrix(nrows, ncols, tuple(tuple(row) for row in grid))


def koszul_exactness_check(gs, k_max: int) -> bool:
    """Exactness of the Koszul complex K away from homological degree 0, up to degree k_max.

    Let a_j be the lowest degree of H_j(K); then a_j >= a_1 + (j - 1) d.  By
    induction on m: for m = 1, H_1 = ann g_1 = 0, and K(g) = K(g') (x) K(g_m)
    gives 0 -> coker(g_m: H_j(g')_(k-d) -> H_j(g')_k) -> H_j(g)_k -> ker(g_m:
    H_(j-1)(g')_(k-d) -> H_(j-1)(g')_k) -> 0.  In the lowest degree of H_1(g')
    the cokernel is all of H_1(g'), so a_1 <= a'_1; and a_j >= min(a'_j,
    a'_(j-1) + d) >= a'_1 + (j - 1) d.  So where homology first appears only
    H_1 lives, and the Euler characteristic reads dim (S/I)_k = c_k + dim
    H_1(K)_k (_koszul_bound).  K is exact up to k_max iff every d <= k <= k_max
    has dim I_k = dim S_k - c_k, a proven bound of the rank while the lower
    degrees are exact; c_k < 0 fails at once.

    With m = n and k_max > nu it is exact iff the forms are a regular sequence
    (Eisenbud, Commutative Algebra, 17.5), the cached rank of I_{nu+1}: if not,
    H_0 = (S/I)_{nu+1} != 0 and sum_j (-1)^j dim H_j(K)_{nu+1} = c_{nu+1} = 0.
    """
    ideal = GradedIdeal.of(gs)
    n, d, m = ideal.nvars, ideal.d, len(ideal.generators)
    if m == n and k_max > ideal.nu:
        return is_regular_sequence(ideal)  # the cached rank
    for k in range(d, k_max + 1):
        bound, dim = _koszul_bound(n, d, m, k), dim_degree(n, k)
        if bound > dim or certified_rank(ideal._macaulay_rows(k), dim, bound) < bound:
            return False
    return True


def intersect_with_coordinates(rows, ncols: int, keep_cols) -> QMatrix:
    """Canonical basis of (span of integer rows) cut to a coordinate subspace.

    rows are sparse integer rows {column: entry}, any spanning set; keep_cols
    flags, per column, whether the coordinate may be nonzero.  The result is
    the subspace of the span supported on the kept columns, in RREF.
    """
    # one RREF with the dropped columns first: the rows pivoting past them
    # vanish there and span the intersection, already reduced
    order = sorted(range(ncols), key=lambda c: bool(keep_cols[c]))
    back = sorted(range(ncols), key=order.__getitem__)  # the inverse permutation
    reduced, pivots = reduce_rows([{back[c]: x for c, x in row.items()} for row in rows], ncols)
    ndrop = sum(not keep for keep in keep_cols)
    grid = tuple(tuple(row[j] for j in back)
                 for row, pc in zip(reduced.entries, pivots) if pc >= ndrop)
    return QMatrix(len(grid), ncols, grid)
