"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from assoform.ideals import (DEGREE_CAP, DegreeCapError, GradedIdeal, coeff_vector,
                             is_regular_sequence, vectors_to_polynomials)
from assoform.linalg import (QMatrix, from_rows, kernel_basis,
                             row_space_basis, solve_square, unit_columns)
from assoform.parsing import _ExprParser, _tokenize
from assoform.poly import (Mono, Polynomial, Space, apolar_apply, mono_factorial,
                           monomials_of_degree, pairing, partial)
from assoform.stability import (DecompositionCertificate, OnePS, RootWitness, Verdict,
                                torus_destabilizer)


def from_monomial(nvars: int, space: Space, mono: Mono, coeff=1) -> Polynomial:
    """The term coeff * x^mono (z^mono in the dual space)."""
    return Polynomial(nvars, space, {tuple(mono): Fraction(coeff)})


def identity(n: int) -> QMatrix:
    one, zero = Fraction(1), Fraction(0)
    return QMatrix(n, n, tuple(tuple(one if i == j else zero for j in range(n))
                               for i in range(n)))


def transpose(m: QMatrix) -> QMatrix:
    return QMatrix(m.cols, m.rows,
                   tuple(tuple(m.entries[i][j] for i in range(m.rows))
                         for j in range(m.cols)))


def mat_mul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = transpose(b)
    grid = tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0))
                       for col in bt.entries)
                 for row in a.entries)
    return QMatrix(a.rows, b.cols, grid)


def zero_matrix(rows: int, cols: int) -> QMatrix:
    z = Fraction(0)
    return QMatrix(rows, cols, tuple((z,) * cols for _ in range(rows)))


def det(m: QMatrix) -> Fraction:
    """Determinant by exact elimination."""
    if m.rows != m.cols:
        raise ValueError("det expects a square matrix")
    n = m.rows
    rows = [list(r) for r in m.entries]
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def reference_rref_rows(rows: list[list[Fraction]], ncols: int):
    """Oracle: Gauss-Jordan on Fractions, pivoting on the first nonzero entry."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_rank(rows, ncols: int) -> int:
    """The rank over Q of a matrix given by rows, by plain Fraction elimination."""
    return len(reference_rref_rows([[Fraction(x) for x in row] for row in rows], ncols)[1])


def kernel_of_rref(reduced: QMatrix, pivots) -> list[tuple[Fraction, ...]]:
    """Null-space basis off an RREF (pivot rows suffice): one vector per free column."""
    basis = []
    for free in range(reduced.cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * reduced.cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced.entries[r][free]
        basis.append(tuple(vec))
    return basis


def reference_null_space(rows, ncols: int) -> QMatrix:
    """Oracle for linalg.null_space: the RREF of the kernel read off the matrix's RREF."""
    reduced, pivots = reference_rref_rows([[Fraction(x) for x in row] for row in rows], ncols)
    kernel = kernel_of_rref(from_rows(reduced, cols=ncols), tuple(pivots))
    return from_rows(reference_rref_rows([list(v) for v in kernel], ncols)[0], cols=ncols)


def reference_in_row_space(basis: QMatrix, pivots: tuple[int, ...], vector) -> bool:
    """Oracle for linalg.in_row_space: reduce vector against the RREF pivot rows."""
    vec = [Fraction(x) for x in vector]
    for r, pc in enumerate(pivots):
        if vec[pc] != 0:
            f = vec[pc]
            row = basis.entries[r]
            vec = [x - f * y for x, y in zip(vec, row)]
    return all(x == 0 for x in vec)


def inverse_transpose(m: QMatrix) -> QMatrix:
    """Matrix acting on dual variables when m acts on primal ones: (m^-1)^T."""
    n = m.rows
    rows = [list(row) + list(unit) for row, unit in zip(m.entries, identity(n).entries)]
    rows, pivots = reference_rref_rows(rows, n)
    if len(pivots) < n:
        raise ValueError("substitution matrix is singular")
    return transpose(from_rows([row[n:] for row in rows], cols=n))


# Oracle for inverse_system.perp_piece: its earlier form, one apolar_apply
# per source monomial, transposed into the catalecticant.
def reference_perp_piece(f: Polynomial, k: int) -> QMatrix:
    """Canonical basis of the degree-k piece of the apolar ideal of f.

    This is the kernel of the catalecticant map S_k -> D_{nu-k} sending g to
    g acting on f: all of S_k for k > deg f.  Refused for deg f > DEGREE_CAP.
    """
    if f.is_zero():
        raise ValueError("the zero form has no apolar ideal piece")
    if f.space is not Space.DUAL or not f.is_homogeneous():
        raise ValueError("perp_piece expects a homogeneous dual form")
    if k < 0:
        raise ValueError("degree must be non-negative")
    n, nu = f.nvars, f.degree()
    if nu > DEGREE_CAP:
        raise DegreeCapError(f"form degree {nu} exceeds the supported bound {DEGREE_CAP}")
    tgt = monomials_of_degree(n, nu - k)
    cat = [coeff_vector(apolar_apply(from_monomial(n, Space.PRIMAL, mono), f), tgt)
           for mono in monomials_of_degree(n, k)]
    return reference_null_space(transpose(from_rows(cat, cols=len(tgt))).entries, len(cat))


# Oracle for the Koszul complex of forms g_1..g_m of degree d in n variables:
# its own basis and matrices, built from Polynomial products and the sign rule.
def reference_koszul_basis(n: int, m: int, j: int, e: int) -> list[tuple]:
    """The basis e_W x^b of K_j with deg x^b = e, in the documented wedge-major order.

    W runs over the increasing j-tuples of generator indices in lexicographic
    order, and for each W, x^b over monomials_of_degree(n, e).
    """
    wedges = [w for w in itertools.product(range(m), repeat=j)
              if all(a < b for a, b in zip(w, w[1:]))]
    return [(w, b) for w in wedges for b in monomials_of_degree(n, e)]


def reference_koszul_matrix(gs: list[Polynomial], j: int, k: int) -> QMatrix:
    """d_j in graded degree k: column e_W x^b holds sum_r (-1)^r (x^b g_(W_r)) e_(W - W_r)."""
    n, d, m = gs[0].nvars, gs[0].degree(), len(gs)
    sources = reference_koszul_basis(n, m, j, k - j * d)
    targets = reference_koszul_basis(n, m, j - 1, k - (j - 1) * d)
    grid = [[Fraction(0)] * len(sources) for _ in targets]
    for col, (wedge, b) in enumerate(sources):
        for r, i in enumerate(wedge):
            product = from_monomial(n, Space.PRIMAL, b) * gs[i]
            rest = wedge[:r] + wedge[r + 1:]
            for mono, c in product.terms.items():
                grid[targets.index((rest, mono))][col] += (-1) ** r * c
    return QMatrix(len(targets), len(sources), tuple(tuple(row) for row in grid))


# Oracle for poly.jacobian_det: its earlier Laplace expansion over Fractions.
def reference_jacobian_det(gs: list[Polynomial]) -> Polynomial:
    n = gs[0].nvars
    jac = [[partial(g, j) for j in range(n)] for g in gs]
    memo: dict[tuple[int, ...], Polynomial] = {}

    def minor(rows: tuple[int, ...]) -> Polynomial:
        if not rows:
            return Polynomial.constant(n, Space.PRIMAL, 1)
        cached = memo.get(rows)
        if cached is not None:
            return cached
        col = n - len(rows)
        acc = Polynomial.zero(n, Space.PRIMAL)
        for pos, r in enumerate(rows):
            entry = jac[r][col]
            if entry.is_zero():
                continue
            sub = minor(rows[:pos] + rows[pos + 1:])
            term = entry * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[rows] = acc
        return acc

    return minor(tuple(range(n)))


# Oracle for inverse_system.associated_form: its earlier exact path, omega
# read off the RREF of the Fraction product matrix of I_nu.
def reference_associated_form(gs: list[Polynomial]) -> Polynomial:
    """A(gs) for a regular sequence gs of degree-d forms in n variables."""
    n, d = gs[0].nvars, gs[0].degree()
    nu = n * (d - 1)
    target = monomials_of_degree(n, nu)
    rows = []
    for mono in monomials_of_degree(n, nu - d):
        for g in gs:
            product = {tuple(a + b for a, b in zip(mono, gm)): c for gm, c in g.terms.items()}
            rows.append([product.get(m, Fraction(0)) for m in target])
    reduced, pivots = reference_rref_rows(rows, len(target))
    (omega,) = kernel_of_rref(from_rows(reduced, cols=len(target)), pivots)
    raw = {m: x for m, x in zip(target, omega) if x}
    jac = reference_jacobian_det(gs)
    scale = sum((c * raw[m] for m, c in jac.terms.items() if m in raw), Fraction(0))
    form = Polynomial(n, Space.DUAL, {m: math.factorial(nu) * x / (scale * mono_factorial(m))
                                      for m, x in raw.items()})
    assert pairing(jac, form) == math.factorial(nu)
    return form


def _centroid_in_hull(points: list[Mono], centroid: list[Fraction]) -> bool:
    """Phase-1 simplex (Bland's rule) for centroid in conv(points)."""
    ncon = len(centroid) + 1
    npts = len(points)
    rows = []
    for i in range(len(centroid)):
        rows.append([Fraction(p[i]) for p in points]
                    + [Fraction(1 if k == i else 0) for k in range(ncon)]
                    + [centroid[i]])
    rows.append([Fraction(1)] * npts
                + [Fraction(1 if k == ncon - 1 else 0) for k in range(ncon)]
                + [Fraction(1)])
    basis = [npts + i for i in range(ncon)]
    total_cols = npts + ncon
    # reduced costs for minimizing the sum of artificials
    red = [-sum(rows[i][j] for i in range(ncon)) for j in range(total_cols)]
    for j in range(npts, total_cols):
        red[j] += 1  # artificial cost

    while True:
        enter = next((j for j in range(total_cols) if red[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(ncon):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0]
                                                       and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("phase-1 simplex unbounded; cannot happen")
        _, leave = best
        pv = rows[leave][enter]
        rows[leave] = [x / pv for x in rows[leave]]
        for i in range(ncon):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        f = red[enter]
        red = [x - f * y for x, y in zip(red, rows[leave][:-1])]
        basis[leave] = enter

    slack = sum((rows[i][-1] for i in range(ncon) if basis[i] >= npts), Fraction(0))
    return slack == 0


def _min_norm_certificate(points: list[Mono], n: int) -> tuple[Fraction, ...] | None:
    """Minimum-norm u with u . a >= 1 for all support points and sum u = 0.

    Enumerates KKT active subsets; by convexity any consistent KKT point is
    the unique optimum, so the enumeration order cannot matter.
    """
    npts = len(points)
    for size in range(1, n):
        for active in itertools.combinations(range(npts), size):
            dim = n + size + 1
            mat = [[Fraction(0)] * dim for _ in range(dim)]
            rhs = [Fraction(0)] * dim
            for i in range(n):  # stationarity: 2u - sum(lam_t a_t) - mu 1 = 0
                mat[i][i] = Fraction(2)
                for t, pt in enumerate(active):
                    mat[i][n + t] = Fraction(-points[pt][i])
                mat[i][n + size] = Fraction(-1)
            for t, pt in enumerate(active):  # active constraints at equality
                for i in range(n):
                    mat[n + t][i] = Fraction(points[pt][i])
                rhs[n + t] = Fraction(1)
            for i in range(n):  # zero-sum
                mat[n + size][i] = Fraction(1)
            sol = solve_square(from_rows(mat), rhs)
            if sol is None:
                continue
            u = sol[:n]
            lams = sol[n:n + size]
            if any(lam < 0 for lam in lams):
                continue
            if all(sum(Fraction(p[i]) * u[i] for i in range(n)) >= 1 for p in points):
                return u
    return None


def reference_destabilizer(f: Polynomial) -> OnePS | None:
    """Oracle: phase-1 simplex for hull membership, then KKT enumeration."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no destabilizer")
    n = f.nvars
    points = list(f.terms)
    deg = f.degree()
    centroid = [Fraction(deg, n)] * n
    if _centroid_in_hull(points, centroid):
        return None
    u = _min_norm_certificate(points, n)
    if u is None:
        raise ArithmeticError("hull separation promised a certificate; none found")
    scale = math.lcm(*(x.denominator for x in u))
    ints = [int(x * scale) for x in u]
    g = math.gcd(*(abs(v) for v in ints))
    ints = [v // g for v in ints]
    result = OnePS(tuple(ints))
    if any(sum(w * e for w, e in zip(result.weights, mono)) <= 0 for mono in points):
        raise ArithmeticError("destabilizer certificate failed verification")
    return result


def random_form(rng: random.Random, n: int, d: int, space=Space.PRIMAL,
                lo: int = -3, hi: int = 3) -> Polynomial:
    monos = monomials_of_degree(n, d)
    while True:
        poly = Polynomial(n, space, {m: rng.randint(lo, hi) for m in monos})
        if not poly.is_zero():
            return poly


def random_regular_sequence(rng: random.Random, n: int, d: int) -> list[Polynomial]:
    while True:
        gs = [random_form(rng, n, d) for _ in range(n)]
        if is_regular_sequence(gs):
            return gs


def random_unimodular(rng: random.Random, n: int, nops: int = 6) -> QMatrix:
    """Product of integer shear matrices; determinant exactly 1."""
    m = identity(n)
    for _ in range(nops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        rows = [[Fraction(1 if r == c else 0) for c in range(n)] for r in range(n)]
        rows[i][j] = Fraction(rng.randint(-2, 2))
        m = mat_mul(m, from_rows(rows))
    assert det(m) == 1
    return m


def random_invertible(rng: random.Random, n: int) -> QMatrix:
    while True:
        m = from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


def series_hilbert(n: int, d: int, bound: int) -> list[int]:
    """Oracle: coefficients of ((1 - t^d)/(1 - t))^n = (1 + t + ... + t^{d-1})^n."""
    coeffs = [1]
    block = [1] * d
    for _ in range(n):
        out = [0] * (len(coeffs) + len(block) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(block):
                out[i + j] += a * b
        coeffs = out
    coeffs = coeffs + [0] * (bound + 1)
    return coeffs[: bound + 1]


def power_gens(n: int, degrees) -> list[Polynomial]:
    """The monomial generators x_i^{d_i}."""
    gens = []
    for i, d in enumerate(degrees):
        mono = tuple(d if j == i else 0 for j in range(n))
        gens.append(from_monomial(n, Space.PRIMAL, mono))
    return gens


def lift_block(g: Polynomial, nvars: int, offset: int) -> Polynomial:
    """Embed a small-ring form into n variables starting at offset."""
    pad = (0,) * offset
    tail = (0,) * (nvars - offset - g.nvars)
    return Polynomial(nvars, g.space, {pad + m + tail: c for m, c in g.terms.items()})


def restrict_block(g: Polynomial, start: int, size: int) -> Polynomial:
    """Inverse of lift_block for forms supported on one variable block."""
    terms = {}
    for m, c in g.terms.items():
        assert sum(m[:start]) == 0 and sum(m[start + size:]) == 0
        terms[m[start:start + size]] = c
    return Polynomial(size, g.space, terms)


def mixed_direct_sum(rng: random.Random, n: int, b: int, d: int):
    """A direct-sum regular sequence (split after b) with a scrambled basis.

    Returns (split_generators, mixed_generators); both generate the same
    ideal.
    """
    while True:
        first = [random_form(rng, b, d) for _ in range(b)]
        second = [random_form(rng, n - b, d) for _ in range(n - b)]
        lifted = [lift_block(g, n, 0) for g in first] + \
            [lift_block(g, n, b) for g in second]
        if not is_regular_sequence(lifted):
            continue
        mix = random_invertible(rng, n)
        mixed = [sum((Polynomial.constant(n, Space.PRIMAL, mix.entries[i][j]) * lifted[j]
                      for j in range(n)), Polynomial.zero(n, Space.PRIMAL))
                 for i in range(n)]
        return lifted, mixed


# Oracle for ideals.intersect_with_coordinates: its earlier form, which takes
# the kernel of the dropped columns, multiplies back and reduces a second time.
def reference_intersect_with_coordinates(basis: QMatrix, keep_cols) -> QMatrix:
    """Canonical basis of (row space of basis) cut to a coordinate subspace.

    keep_cols flags, per column, whether the corresponding coordinate may be
    nonzero; the result is the subspace of row-space vectors supported on
    the kept columns, again in RREF.
    """
    drop = [i for i, keep in enumerate(keep_cols) if not keep]
    if not drop:
        return basis
    projected = from_rows([[row[i] for i in drop] for row in basis.entries],
                          cols=len(drop))
    combos = kernel_basis(transpose(projected))
    if not combos:
        return QMatrix(0, basis.cols, ())
    coeff = from_rows(combos, cols=basis.rows)
    return row_space_basis(mat_mul(coeff, basis))


# Oracle for stability.recognize_decomposable: its earlier route, which reads
# condition (B) off the unit columns of the exact RREF of I_N, restricted to
# the pure monomials of degree N in the last n-b variables.
def reference_recognize_decomposable(gs, b: int) -> DecompositionCertificate | None:
    ideal = GradedIdeal.of(gs)
    n, d = ideal.nvars, ideal.d
    monos_d = monomials_of_degree(n, d)
    basis = ideal.graded_piece(d)
    if reference_intersect_with_coordinates(basis, [sum(m[b:]) > 0 for m in monos_d]).rows != n - b:
        return None  # (A) fails
    power = (n - b) * (d - 1) + 1
    target = monomials_of_degree(n, power)
    members = {target[j] for j in unit_columns(*ideal.piece_with_pivots(power))}
    if any(sum(m[:b]) == 0 and m not in members for m in target):
        return None  # (B) fails
    extracted = reference_intersect_with_coordinates(basis, [sum(m[:b]) == 0 for m in monos_d])
    return DecompositionCertificate(
        b, tuple(vectors_to_polynomials(extracted, monos_d, n, Space.PRIMAL)))


# Oracle for parsing.parse_polynomial: its earlier term loop, with one
# Polynomial per atom and one checked product per '*'.
class _FactorByFactor(_ExprParser):
    def term(self) -> Polynomial:
        total = self.factor()
        while self.peek().text == "*":
            tok = self.advance()
            total = self.product(total, self.factor(), tok)
        return total


def reference_parse_polynomial(text: str, names: tuple[str, ...], line: int = 1) -> Polynomial:
    return _FactorByFactor(_tokenize(text, line), names, line).parse()


# Oracle for Polynomial.__pow__: its earlier binary-powering loop.
def reference_pow(f: Polynomial, e: int) -> Polynomial:
    if e < 0:
        raise ValueError("negative polynomial power")
    out = Polynomial.constant(f.nvars, f.space, 1)
    base = f
    while e:
        if e & 1:
            out = out * base
        base = base * base if e > 1 else base
        e >>= 1
    return out


# Oracle for stability.binary_stability: its earlier root multiplicities,
# from Yun's squarefree decomposition with exact division (Yun, Proc.
# SYMSAC 1976).  Univariate polynomials are coefficient lists, lowest
# degree first.


def _unorm(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _udeg(p: list[Fraction]) -> int:
    return len(p) - 1


def _uderiv(p: list[Fraction]) -> list[Fraction]:
    return _unorm([c * i for i, c in enumerate(p)][1:])


def _udivmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while rem and len(rem) >= len(b):
        c = rem[-1] * inv
        k = len(rem) - len(b)
        quot[k] = c
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
        rem = _unorm(rem)
    return _unorm(quot), rem


def _udiv_exact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    q, r = _udivmod(a, b)
    if r:
        raise ArithmeticError("expected exact univariate division")
    return q


def _ugcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _udivmod(a, b)[1]
    if not a:
        return []
    inv = 1 / a[-1]
    return [c * inv for c in a]  # monic for determinism


def reference_squarefree_decomposition(p: list[Fraction]) -> list[tuple[int, list[Fraction]]]:
    """Yun's algorithm: p = lc * product of q_i^i with q_i monic squarefree."""
    p = _unorm(list(p))
    if _udeg(p) < 1:
        return []
    inv = 1 / p[-1]
    p = [c * inv for c in p]
    out = []
    g = _ugcd(p, _uderiv(p))
    b = _udiv_exact(p, g)
    c = _udiv_exact(_uderiv(p), g)
    i = 1
    while _udeg(b) > 0:
        d = _unorm([x - y for x, y in itertools.zip_longest(c, _uderiv(b),
                                                            fillvalue=Fraction(0))])
        q = _ugcd(b, d)
        if _udeg(q) > 0:
            out.append((i, q))
        b = _udiv_exact(b, q)
        c = _udiv_exact(d, q)
        i += 1
    return out


def reference_binary_stability(f: Polynomial):
    """(verdict, witness, multiplicities) of a binary form from Yun's decomposition."""
    m = f.degree()
    p = [Fraction(0)] * (m + 1)
    for (i, _j), c in f.terms.items():
        p[i] = c
    p = _unorm(p)
    profile: dict[int, int] = {}
    factors: list[tuple[int, Polynomial]] = []
    for mult, q in reference_squarefree_decomposition(p):
        profile[mult] = profile.get(mult, 0) + _udeg(q)
        factors.append((mult, Polynomial(2, f.space, {(i, _udeg(q) - i): c
                                                      for i, c in enumerate(q) if c != 0})))
    inf_mult = m - _udeg(p)
    if inf_mult > 0:
        profile[inf_mult] = profile.get(inf_mult, 0) + 1
        factors.append((inf_mult, Polynomial.variable(2, 1, f.space)))
    multiplicities = tuple(sorted(profile.items(), reverse=True))
    max_mult = multiplicities[0][0]
    if 2 * max_mult > m:
        witness = torus_destabilizer(f)
        if witness is None:
            heavy = next(fac for mult, fac in factors if mult == max_mult)
            witness = RootWitness(max_mult, heavy)
        return Verdict.UNSTABLE, witness, multiplicities
    if 2 * max_mult < m:
        return Verdict.STABLE, None, multiplicities
    if multiplicities == ((max_mult, 2),):
        return Verdict.POLYSTABLE_NOT_STABLE, None, multiplicities
    return Verdict.SEMISTABLE_NOT_POLYSTABLE, None, multiplicities
