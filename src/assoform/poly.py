"""Multivariate polynomials over the rationals in primal or dual variables.

Primal polynomials live in the symmetric algebra on x_1..x_n; dual ones in
the z-variables.  Primal elements act on dual ones as constant-coefficient
differential operators (the apolarity action), which restricts to a perfect
pairing between pieces of equal degree.

Monomials are exponent tuples ordered by grevlex: lower total degree first,
ties broken so that a < b when the last nonzero entry of a - b is positive.
Canonical term iteration is descending grevlex, which fixes the printed
form and all matrix column orders downstream.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .linalg import QMatrix

Mono = tuple[int, ...]

# Fractions are immutable, so one shared zero serves every missing entry.
ZERO = Fraction(0)


class Space(Enum):
    PRIMAL = "x"
    DUAL = "z"


def grevlex_less(a: Mono, b: Mono) -> bool:
    """True iff a < b in grevlex order."""
    if len(a) != len(b):
        raise ValueError("monomials must have the same number of variables")
    return grevlex_key(a) < grevlex_key(b)


def grevlex_key(a: Mono):
    """Sort key: sorting ascending by this key gives ascending grevlex."""
    return (sum(a), tuple(-x for x in reversed(a)))


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, k: int) -> tuple[Mono, ...]:
    """All degree-k exponent tuples, descending grevlex (canonical basis order)."""
    if k < 0:
        return ()

    def gen(n: int, total: int):
        if n == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(n - 1, total - first):
                yield (first,) + rest

    return tuple(sorted(gen(nvars, k), key=grevlex_key, reverse=True))


def dim_degree(nvars: int, k: int) -> int:
    """Dimension of the degree-k graded piece of the polynomial ring."""
    if k < 0:
        return 0
    return math.comb(k + nvars - 1, nvars - 1)


def mono_factorial(a: Mono) -> int:
    out = 1
    for e in a:
        out *= math.factorial(e)
    return out


class Polynomial:
    """Sparse polynomial: mapping from exponent tuples to nonzero Fractions."""

    __slots__ = ("nvars", "space", "terms")

    def __init__(self, nvars: int, space: Space, terms=None):
        self.nvars = nvars
        self.space = space
        clean: dict[Mono, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != nvars:
                raise ValueError("monomial arity does not match nvars")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c != 0:
                clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int, space: Space) -> Polynomial:
        return cls(nvars, space)

    @classmethod
    def constant(cls, nvars: int, space: Space, value) -> Polynomial:
        return cls(nvars, space, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int, space: Space) -> Polynomial:
        if not 0 <= index < nvars:
            raise IndexError("variable index out of range")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, space, {mono: Fraction(1)})

    @classmethod
    def from_monomial(cls, nvars: int, space: Space, mono: Mono, coeff=1) -> Polynomial:
        return cls(nvars, space, {tuple(mono): Fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Mono) -> Fraction:
        return self.terms.get(tuple(mono), ZERO)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(m) for m in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]),
                      reverse=True)

    def retag(self, space: Space) -> Polynomial:
        return Polynomial(self.nvars, space, self.terms)

    def normalized(self) -> Polynomial:
        """Canonical projective representative: leading grevlex coefficient 1."""
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.sorted_terms()[0][1]
        return self * (1 / lead)

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: Polynomial):
        if self.nvars != other.nvars:
            raise ValueError("mismatched number of variables")
        if self.space is not other.space:
            raise ValueError("mismatched variable spaces")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_compat(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return Polynomial(self.nvars, self.space, out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.nvars, self.space,
                          {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            self._check_compat(other)
            out: dict[Mono, Fraction] = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(ma, mb))
                    out[key] = out.get(key, ZERO) + ca * cb
            return Polynomial(self.nvars, self.space, out)
        c = Fraction(other)
        return Polynomial(self.nvars, self.space,
                          {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> Polynomial:
        """Repeated multiplication: e - 1 products, the cost the parser bounds."""
        if e < 0:
            raise ValueError("negative polynomial power")
        if e == 0:
            return Polynomial.constant(self.nvars, self.space, 1)
        if len(self.terms) <= 1:  # a monomial or zero: one term, computed directly
            return Polynomial(self.nvars, self.space,
                              {tuple(e * x for x in m): c ** e for m, c in self.terms.items()})
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.nvars == other.nvars
                and self.space is other.space
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"

    def __str__(self) -> str:
        return self.render()

    # -- rendering ---------------------------------------------------------

    def default_names(self) -> list[str]:
        prefix = self.space.value
        return [f"{prefix}{i + 1}" for i in range(self.nvars)]

    def render(self, names: list[str] | None = None) -> str:
        """Canonical text form; parseable by the CLI grammar."""
        if not self.terms:
            return "0"
        names = names or self.default_names()
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                mag_str = str(mag) if mag.denominator == 1 else f"({mag})"
                body = "*".join([mag_str] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


# -- calculus and the apolarity action --------------------------------------


def partial(f: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to variable i."""
    if not 0 <= i < f.nvars:
        raise IndexError("variable index out of range")
    out: dict[Mono, Fraction] = {}
    for mono, coeff in f.terms.items():
        e = mono[i]
        if e == 0:
            continue
        key = mono[:i] + (e - 1,) + mono[i + 1:]
        out[key] = out.get(key, ZERO) + coeff * e
    return Polynomial(f.nvars, f.space, out)


def apolar_apply(g: Polynomial, f: Polynomial) -> Polynomial:
    """Apply g(d/dz_1,...,d/dz_n) to f; bilinear in (g, f)."""
    if g.nvars != f.nvars:
        raise ValueError("mismatched number of variables")
    if g.space is not Space.PRIMAL or f.space is not Space.DUAL:
        raise ValueError("apolarity acts by primal on dual")
    out: dict[Mono, Fraction] = {}
    for a, ca in g.terms.items():
        for b, cb in f.terms.items():
            if any(x > y for x, y in zip(a, b)):
                continue
            scale = 1
            for x, y in zip(a, b):
                scale *= math.perm(y, x)
            key = tuple(y - x for x, y in zip(a, b))
            out[key] = out.get(key, ZERO) + ca * cb * scale
    return Polynomial(f.nvars, Space.DUAL, out)


def pairing(g: Polynomial, f: Polynomial) -> Fraction:
    """The perfect pairing of equal-degree pieces: sum of a! g_a f_a."""
    if g.nvars != f.nvars:
        raise ValueError("mismatched number of variables")
    if g.space is not Space.PRIMAL or f.space is not Space.DUAL:
        raise ValueError("pairing takes a primal and a dual polynomial")
    if not (g.is_homogeneous() and f.is_homogeneous()):
        raise ValueError("pairing requires homogeneous arguments")
    if not g.is_zero() and not f.is_zero() and g.degree() != f.degree():
        raise ValueError("pairing requires equal degrees")
    total = Fraction(0)
    for a, ca in g.terms.items():
        cb = f.terms.get(a)
        if cb is not None:
            total += ca * cb * mono_factorial(a)
    return total


def integer_terms(terms: dict[Mono, Fraction]) -> tuple[Fraction, dict[Mono, int]]:
    """(s, t): t = s * terms with coprime integer coefficients ({} for no terms)."""
    lcm = math.lcm(*(c.denominator for c in terms.values()))
    ints = [c.numerator * (lcm // c.denominator) for c in terms.values()]
    g = math.gcd(*ints) or 1
    return Fraction(lcm, g), dict(zip(terms, (x // g for x in ints)))


def jacobian_det(gs: list[Polynomial]) -> Polynomial:
    """Determinant of the Jacobian matrix (dg_i/dx_j), expanded exactly.

    The Laplace minors are int dicts of the integer forms s_i g_i (see
    integer_terms); the determinant is divided once by prod s_i.
    """
    if not gs:
        raise ValueError("empty polynomial list")
    n = gs[0].nvars
    if len(gs) != n:
        raise ValueError("need exactly as many polynomials as variables")
    for g in gs:
        if g.nvars != n or g.space is not Space.PRIMAL:
            raise ValueError("jacobian_det expects primal polynomials in n variables")
    scales, forms = zip(*(integer_terms(g.terms) for g in gs))
    jac = [[{m[:j] + (m[j] - 1,) + m[j + 1:]: c * m[j] for m, c in form.items() if m[j]}
            for j in range(n)] for form in forms]
    memo: dict[tuple[int, ...], dict[Mono, int]] = {(): {(0,) * n: 1}}

    def minor(rows: tuple[int, ...]) -> dict[Mono, int]:
        if rows not in memo:
            col, acc = n - len(rows), {}
            for pos, r in enumerate(rows):
                entry = jac[r][col]
                sub = minor(rows[:pos] + rows[pos + 1:]) if entry else {}
                for ma, ca in entry.items():
                    for mb, cb in sub.items():
                        key = tuple(x + y for x, y in zip(ma, mb))
                        acc[key] = acc.get(key, 0) + (-ca if pos % 2 else ca) * cb
            memo[rows] = {m: c for m, c in acc.items() if c}
        return memo[rows]

    scale = math.prod(scales)
    return Polynomial(n, Space.PRIMAL, {m: c / scale for m, c in minor(tuple(range(n))).items()})


def substitute(f: Polynomial, m: QMatrix) -> Polynomial:
    """Replace variable i by the linear form with coefficients in row i of m.

    Composition law: substitute(substitute(f, a), b) == substitute(f, a @ b).
    """
    if m.rows != f.nvars or m.cols != f.nvars:
        raise ValueError("substitution matrix must be n x n")
    n = f.nvars
    images = [Polynomial(n, f.space,
                         {tuple(1 if j == k else 0 for k in range(n)): m.entries[i][j]
                          for j in range(n) if m.entries[i][j] != 0})
              for i in range(n)]
    out = Polynomial.zero(n, f.space)
    for mono, coeff in f.terms.items():
        term = Polynomial.constant(n, f.space, coeff)
        for i, e in enumerate(mono):
            if e:
                term = term * images[i] ** e
        out = out + term
    return out

