"""Exact polynomial helpers for generating and checking benchmark inputs.

Independent of assoform on purpose: the benchmark builds its inputs and
verifies the program's reports with this code, so a defect in the program
cannot hide behind the same defect in the checker.  Polynomials are dicts
from exponent tuples to Fractions; nothing here does elimination on the
program's scale (the largest matrix is the regularity screen's product
matrix, reduced modulo a prime).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

PRIME = 2_147_483_647


def monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree k in n variables (lex order)."""
    if n == 1:
        return [(k,)]
    return [(first,) + rest for first in range(k, -1, -1)
            for rest in monomials(n - 1, k - first)]


def dim_degree(n: int, k: int) -> int:
    return math.comb(k + n - 1, n - 1) if k >= 0 else 0


def add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            m = tuple(x + y for x, y in zip(a, b))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def power(p: dict, e: int, n: int) -> dict:
    out = {(0,) * n: Fraction(1)}
    for _ in range(e):
        out = mul(out, p)
    return out


def linear_substitute(f: dict, matrix, n: int) -> dict:
    """f(M x): variable i becomes sum_j M[i][j] x_j."""
    images = [{tuple(int(j == k) for k in range(n)): Fraction(matrix[i][j])
               for j in range(n) if matrix[i][j]} for i in range(n)]
    out: dict = {}
    for mono, coeff in f.items():
        term = {(0,) * n: Fraction(coeff)}
        for i, e in enumerate(mono):
            for _ in range(e):
                term = mul(term, images[i])
        out = add(out, term)
    return out


def partial(f: dict, i: int) -> dict:
    out: dict = {}
    for mono, c in f.items():
        if mono[i]:
            m = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            out[m] = out.get(m, 0) + c * mono[i]
    return {m: c for m, c in out.items() if c}


def jacobian_det(gs: list[dict], n: int) -> dict:
    """det (d g_i / d x_j) by cofactor expansion along columns."""
    jac = [[partial(g, j) for j in range(n)] for g in gs]
    memo: dict = {}

    def minor(rows: tuple[int, ...]) -> dict:
        if not rows:
            return {(0,) * n: Fraction(1)}
        if rows not in memo:
            col = n - len(rows)
            acc: dict = {}
            for pos, r in enumerate(rows):
                if jac[r][col]:
                    term = mul(jac[r][col], minor(rows[:pos] + rows[pos + 1:]))
                    acc = add(acc, term, 1 if pos % 2 == 0 else -1)
            memo[rows] = acc
        return memo[rows]

    return minor(tuple(range(n)))


def apolar_apply(g: dict, f: dict) -> dict:
    """g(d/dz) applied to the dual form f."""
    out: dict = {}
    for a, ca in g.items():
        for b, cb in f.items():
            if all(x <= y for x, y in zip(a, b)):
                scale = math.prod(math.perm(y, x) for x, y in zip(a, b))
                m = tuple(y - x for x, y in zip(a, b))
                out[m] = out.get(m, 0) + ca * cb * scale
    return {m: c for m, c in out.items() if c}


def pairing(g: dict, f: dict) -> Fraction:
    return sum((c * f[m] * math.prod(math.factorial(e) for e in m)
                for m, c in g.items() if m in f), Fraction(0))


def series_hilbert(n: int, d: int, bound: int) -> list[int]:
    """Coefficients of ((1 - t^d)/(1 - t))^n for degrees 0..bound."""
    coeffs = [1]
    for _ in range(n):
        out = [0] * (len(coeffs) + d - 1)
        for i, a in enumerate(coeffs):
            for j in range(d):
                out[i + j] += a
        coeffs = out
    return (coeffs + [0] * (bound + 1))[:bound + 1]


# -- text form ---------------------------------------------------------------


def render(f: dict, names) -> str:
    """A line in the CLI input grammar; '0' for the zero polynomial."""
    pieces = []
    for mono, coeff in sorted(f.items(), reverse=True):
        coeff = Fraction(coeff)
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, mono) if e]
        mag = abs(coeff)
        lit = str(mag) if mag.denominator == 1 else f"({mag})"
        body = "*".join(([lit] if mag != 1 or not factors else []) + factors)
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def system_text(gs: list[dict], names) -> str:
    return "vars: " + " ".join(names) + "\n" + "".join(
        render(g, names) + "\n" for g in gs)


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_rendered(text: str, names) -> dict:
    """Inverse of assoform's canonical rendering (sums of signed monomials)."""
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _TERM_SPLIT.split(text)
    signs = [sign] + [1 if s == "+" else -1 for s in parts[1::2]]
    out: dict = {}
    for sgn, body in zip(signs, parts[0::2]):
        coeff = Fraction(sgn)
        mono = [0] * len(names)
        for factor in body.split("*"):
            if factor[0] in "(0123456789":
                coeff *= Fraction(factor.strip("()"))
            else:
                name, _, e = factor.partition("^")
                mono[index[name]] += int(e) if e else 1
        key = tuple(mono)
        if key in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = coeff
    return out


# -- small exact linear algebra ---------------------------------------------


def rank_mod_p(rows: list[list], ncols: int, p: int = PRIME) -> int:
    """Rank of a rational matrix reduced mod p (a lower bound on its rank)."""
    work = [[x.numerator * pow(x.denominator, -1, p) % p
             if isinstance(x, Fraction) else x % p for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p)
        prow = [x * inv % p for x in work[rank]]
        work[rank] = prow
        for i in range(rank + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], prow)]
        rank += 1
    return rank


def certainly_regular(gs: list[dict], n: int, d: int) -> bool:
    """Sufficient test: (S/I) vanishes in degree n(d-1)+1 modulo a prime.

    Full column rank of the product matrix mod p implies full rank over Q,
    which certifies that n forms in n variables are a regular sequence.
    """
    k = n * (d - 1) + 1
    target = {m: i for i, m in enumerate(monomials(n, k))}
    rows = []
    for mono in monomials(n, k - d):
        for g in gs:
            row = [0] * len(target)
            for gm, c in g.items():
                row[target[tuple(a + b for a, b in zip(mono, gm))]] = c
            rows.append(row)
    return rank_mod_p(rows, len(target)) == len(target)


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Unique solution of a small square system, or None if singular."""
    n = len(matrix)
    rows = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(matrix, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [rows[i][n] for i in range(n)]

